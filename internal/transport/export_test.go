package transport

// SndUna returns the cumulative acknowledgment point.
func (f *Flow) SndUna() int64 { return f.sndUna }

// SndNxt returns the next sequence to send.
func (f *Flow) SndNxt() int64 { return f.sndNxt }

// Spans returns the number of disjoint ranges held.
func (s *IntervalSet) Spans() int { return len(s.iv) }
