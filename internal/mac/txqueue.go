package mac

import (
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/phy"
)

// txJob is one MPDU pending transmission with DCF etiquette and
// retry handling. Jobs are recycled through the station's free list:
// the DCF machine schedules the same three pre-bound callbacks for a
// job's whole life instead of minting a closure per deferral, and
// completeTx returns the job to the pool once no event references it.
type txJob struct {
	frame    dot11.Frame
	needAck  bool
	rate     phy.Rate
	attempts int
	seqSet   bool
	// sendData marks a SendData frame, which releaseTxJob recycles.
	sendData bool

	attemptFn func()
	doneFn    func()
	timeoutFn func()
	next      *txJob
}

// newTxJob takes a job from the free list (or allocates one with its
// callbacks bound) and arms it for a single MPDU.
func (s *Station) newTxJob(f dot11.Frame, needAck bool, rate phy.Rate) *txJob {
	j := s.txFree
	if j == nil {
		j = &txJob{}
		jj := j
		j.attemptFn = func() { s.attemptSend(jj) }
		j.doneFn = func() { s.completeTx(jj) }
		j.timeoutFn = func() { s.ackTimeout(jj) }
	} else {
		s.txFree = j.next
		j.next = nil
	}
	j.frame = f
	j.needAck = needAck
	j.rate = rate
	return j
}

// newDataJob arms a job for a SendData frame to peer.
func (s *Station) newDataJob(d *dot11.Data, peer dot11.MAC) *txJob {
	j := s.newTxJob(d, true, s.DataRateFor(peer))
	j.sendData = true
	return j
}

// releaseTxJob recycles a completed job. Safe at completeTx time: the
// ACK-await handle has been cancelled or fired, and every deferral
// chain ends in exactly one of the three callbacks. A probe response
// or a SendData frame goes back to its free list with it: the job held
// the only reference to that frame. Other data frames (EAPOL, null)
// are not recycled, and a job buffered for a dozing peer is not
// released until it has been sent.
func (s *Station) releaseTxJob(j *txJob) {
	switch f := j.frame.(type) {
	case *dot11.ProbeResp:
		s.probeResps = append(s.probeResps, f)
	case *dot11.Data:
		if j.sendData {
			s.dataFree = append(s.dataFree, f)
		}
	}
	j.frame = nil
	j.needAck = false
	var zeroRate phy.Rate
	j.rate = zeroRate
	j.attempts = 0
	j.seqSet = false
	j.sendData = false
	j.next = s.txFree
	s.txFree = j
}

// enqueue adds a job to the transmit queue and kicks the DCF machine.
func (s *Station) enqueue(j *txJob) {
	s.txq = append(s.txq, j)
	s.kickTx()
}

// kickTx starts servicing the queue if idle.
func (s *Station) kickTx() {
	if s.txActive != nil || len(s.txq) == 0 {
		return
	}
	// Pop by shifting down, so the queue keeps its backing array and
	// enqueue does not regrow it every time the queue drains.
	s.txActive = s.txq[0]
	n := copy(s.txq, s.txq[1:])
	s.txq[n] = nil
	s.txq = s.txq[:n]
	s.deferAndSend(s.txActive)
}

// deferAndSend waits DIFS plus a random backoff and transmits. The
// contention window doubles on retries, as in DCF.
func (s *Station) deferAndSend(j *txJob) {
	backoffSlots := s.rng.Intn(s.cw + 1)
	wait := s.band.DIFS() + eventsim.Time(backoffSlots)*s.band.SlotTime()
	s.sched.After(wait, j.attemptFn)
}

func (s *Station) attemptSend(j *txJob) {
	if s.NAVBusy() {
		// Virtual carrier sense: wait out the reservation, then
		// contend again. SIFS responses (ACK/CTS) ignore the NAV —
		// which is why a NAV-jammed victim still acknowledges fake
		// frames.
		s.Stats.NAVDefers++
		wait := s.navUntil - s.sched.Now() + s.band.DIFS()
		s.sched.After(wait, j.attemptFn)
		return
	}
	if s.Radio.CCABusy() || s.Radio.Transmitting() {
		// Medium busy: retry the deferral (simplified freeze).
		s.deferAndSend(j)
		return
	}
	// PS stations must be awake to transmit.
	if s.Radio.Asleep() {
		s.Radio.Wake()
		s.metrics.Wakes.Inc()
	}
	// Stamp sequence number once; retries keep it and set the Retry
	// flag — this is what makes Figure 3's deauth bursts share a SN.
	if hdr, ok := headerOf(j.frame); ok {
		if !j.seqSet {
			hdr.Seq.Number = s.nextSeq()
			j.seqSet = true
		}
		hdr.FC.Retry = j.attempts > 0
		if j.needAck {
			hdr.Duration = phy.NAV(s.band, j.rate)
		}
	}
	wire, err := dot11.AppendSerialize(s.wireScratch[:0], j.frame)
	if err != nil {
		s.completeTx(j)
		return
	}
	s.wireScratch = wire[:0]
	s.Radio.SetNextTxLabel(j.frame.Control().Name())
	end, err := s.Radio.Transmit(wire, j.rate)
	if err != nil {
		s.deferAndSend(j)
		return
	}
	j.attempts++
	if _, isData := j.frame.(*dot11.Data); isData && j.attempts == 1 {
		s.Stats.TxData++
	}
	if j.attempts > 1 {
		s.Stats.TxRetries++
	}
	if !j.needAck {
		s.sched.Schedule(end, j.doneFn)
		return
	}
	// ACK timeout: SIFS + ACK airtime + propagation/processing slack.
	timeout := end + s.band.SIFS() + phy.AckDuration(j.rate) + 15*eventsim.Microsecond
	s.awaitAck = s.sched.Schedule(timeout, j.timeoutFn)
}

// handleAckRx resolves the pending job when its acknowledgement
// arrives.
func (s *Station) handleAckRx(a *dot11.Ack) {
	j := s.txActive
	if j == nil || !s.awaitAck.Valid() {
		return
	}
	s.awaitAck.Cancel()
	s.awaitAck = eventsim.Handle{}
	s.Stats.AcksReceived++
	s.completeTx(j)
}

func (s *Station) ackTimeout(j *txJob) {
	s.awaitAck = eventsim.Handle{}
	if j.attempts >= s.retryLimit {
		s.Stats.TxFailed++
		s.cw = 15
		s.completeTx(j)
		return
	}
	if s.cw < 1023 {
		s.cw = s.cw*2 + 1
	}
	s.deferAndSend(j)
}

func (s *Station) completeTx(j *txJob) {
	if s.txActive == j {
		s.txActive = nil
	}
	s.cw = 15
	s.releaseTxJob(j)
	s.psActivity()
	s.kickTx()
}
