package mac

import (
	"politewifi/internal/dot11"
	"politewifi/internal/eventsim"
	"politewifi/internal/radio"
)

// psState is the client power-save machinery: the radio dozes except
// around expected beacons, and any received traffic keeps it awake
// for idleTimeout. The battery-drain attack works because fake frames
// arriving faster than idleTimeout pin the radio awake forever.
type psState struct {
	enabled     bool
	intervalTU  uint16
	idleTimeout eventsim.Time
	guard       eventsim.Time // wake this long before the expected beacon
	beaconWait  eventsim.Time // stay up this long hunting for the beacon

	lastActivity eventsim.Time
	dozeVersion  uint64 // invalidates stale doze timers
	nextBeaconAt eventsim.Time
}

// EnablePowerSave turns on the doze state machine and announces PS
// mode to the AP (null frame with the PowerMgmt bit). The station
// must be associated so it knows the beacon cadence.
func (s *Station) EnablePowerSave() {
	if !s.Profile.SupportsPowerSave {
		return
	}
	if s.associated {
		s.sendPMNull(true)
	}
	s.ps.enabled = true
	s.ps.lastActivity = s.sched.Now()
	interval := s.beaconInterval()
	s.ps.nextBeaconAt = s.sched.Now() + interval
	s.scheduleBeaconWake()
	s.armDoze()
}

// sendPMNull announces a power-management transition.
func (s *Station) sendPMNull(entering bool) {
	d := dot11.NewNullFrame(s.bssid, s.Addr, s.bssid, 0)
	d.FC.ToDS = true
	d.FC.PowerMgmt = entering
	s.enqueue(s.newTxJob(d, true, defaultDataRate))
}

func (s *Station) beaconInterval() eventsim.Time {
	return eventsim.Time(s.ps.intervalTU) * 1024 * eventsim.Microsecond
}

// psActivity records traffic and postpones the next doze. Called on
// every reception and transmission — receiving the attacker's fake
// frames counts as activity, which is exactly how the drain attack
// defeats power save.
func (s *Station) psActivity() {
	if !s.ps.enabled {
		return
	}
	s.ps.lastActivity = s.sched.Now()
	s.armDoze()
}

// armDoze schedules the radio to sleep after the idle timeout,
// cancelling any earlier attempt.
func (s *Station) armDoze() {
	s.ps.dozeVersion++
	v := s.ps.dozeVersion
	s.sched.After(s.ps.idleTimeout, func() {
		if !s.ps.enabled || v != s.ps.dozeVersion {
			s.Stats.DozeDenied++
			return
		}
		if s.txActive != nil || len(s.txq) > 0 {
			// Pending transmissions keep us up; try again later.
			s.armDoze()
			return
		}
		if !s.Radio.Asleep() {
			s.Radio.Sleep()
			s.Stats.Dozes++
			s.metrics.Dozes.Inc()
		}
	})
}

// scheduleBeaconWake arms the periodic wake-for-beacon chain.
func (s *Station) scheduleBeaconWake() {
	if !s.ps.enabled {
		return
	}
	wakeAt := s.ps.nextBeaconAt - s.ps.guard
	if wakeAt < s.sched.Now() {
		wakeAt = s.sched.Now()
	}
	s.sched.Schedule(wakeAt, func() {
		if !s.ps.enabled {
			return
		}
		if s.Radio.Asleep() {
			s.Radio.Wake()
			s.metrics.Wakes.Inc()
		}
		// Hunt for the beacon, then re-doze — unless directed traffic
		// arrived within the idle timeout, which pins us awake. This
		// is the lever the battery-drain attack pulls.
		s.sched.After(s.ps.guard+s.ps.beaconWait, func() {
			if !s.ps.enabled {
				return
			}
			if s.sched.Now()-s.ps.lastActivity >= s.ps.idleTimeout {
				if s.txActive == nil && len(s.txq) == 0 && !s.Radio.Asleep() {
					s.Radio.Sleep()
					s.Stats.Dozes++
					s.metrics.Dozes.Inc()
				}
			}
		})
		s.ps.nextBeaconAt += s.beaconInterval()
		s.scheduleBeaconWake()
	})
}

// processBeacon tracks the AP's beacon timing so the wake schedule
// stays locked to the real cadence, and honours the TIM: buffered
// traffic keeps the station awake.
func (s *Station) processBeacon(b *dot11.Beacon, rx radio.Reception) {
	if s.Role != RoleClient {
		return
	}
	if s.bssid != dot11.ZeroMAC && b.Addr2 != s.bssid {
		return
	}
	s.Stats.BeaconsHeard++
	if !s.ps.enabled {
		return
	}
	if b.IntervalTU != 0 {
		s.ps.intervalTU = b.IntervalTU
	}
	// Re-anchor the wake chain on the observed beacon time.
	next := rx.End + s.beaconInterval()
	if next > s.ps.nextBeaconAt {
		s.ps.nextBeaconAt = next
	}
	if dot11.TIMBuffered(b.IEs, s.aid) {
		// Traffic waiting at the AP: stay awake and poll for it.
		s.Stats.PSPollsSent++
		s.psActivity()
		poll := &dot11.PSPoll{AID: s.aid, BSSID: s.bssid, TA: s.Addr}
		s.enqueue(s.newTxJob(poll, false, defaultDataRate))
	}
}
