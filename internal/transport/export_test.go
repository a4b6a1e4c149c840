package transport

// SndUna returns the cumulative acknowledgment point.
func (f *Flow) SndUna() int64 { return f.sndUna }

// SndNxt returns the next sequence to send.
func (f *Flow) SndNxt() int64 { return f.sndNxt }

// Spans returns the number of disjoint ranges held, a non-empty in-order
// prefix counting as one.
func (s *IntervalSet) Spans() int {
	if s.cum > 0 {
		return len(s.iv) + 1
	}
	return len(s.iv)
}

// Contains reports whether every byte of [start, end) has been received.
func (s *IntervalSet) Contains(start, end int64) bool {
	if 0 <= start && end <= s.cum {
		return true
	}
	for _, iv := range s.iv {
		if iv.start <= start && end <= iv.end {
			return true
		}
	}
	return end <= start
}
