package queue

// LevelBytes returns the bytes queued at one priority level.
func (q *Prio) LevelBytes(lvl int) int64 { return q.levels[lvl].Bytes() }
