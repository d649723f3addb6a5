package replay

// LoadReference exports the encoding/json reader to the benchmarks in
// package replay_test.
var LoadReference = loadReference

// StopLogs returns l's records as the per-stop shards that
// Recorder.WriteStop takes, in stop order.
func StopLogs(l *Log) []*StopLog {
	logs := make([]*StopLog, l.Stops())
	for stop := range logs {
		logs[stop] = NewStopLog(stop)
		for _, lr := range l.stops[stop] {
			logs[stop].recs = append(logs[stop].recs, lr.rec)
		}
	}
	return logs
}
