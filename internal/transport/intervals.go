package transport

// IntervalSet tracks received byte ranges on the receiver side and yields
// the cumulative acknowledgment point. Ranges are half-open [start, end)
// of offsets from 0. The in-order prefix [0, cum) is a number; only the
// ranges above it are spans in iv, kept sorted, disjoint and apart from
// each other and from the prefix, so insertion merges neighbours. A
// receiver whose data arrives in order therefore never allocates, and the
// cumulative point is a field read.
type IntervalSet struct {
	cum int64
	iv  []interval
}

type interval struct{ start, end int64 }

// Add records the range [start, end). Overlapping or adjacent ranges are
// merged. Empty or inverted ranges are ignored.
func (s *IntervalSet) Add(start, end int64) {
	if end <= start || end <= s.cum {
		return
	}
	if start <= s.cum {
		// The prefix grows, and takes in every span it now reaches.
		s.cum = end
		i := 0
		for i < len(s.iv) && s.iv[i].start <= s.cum {
			s.cum = max(s.cum, s.iv[i].end)
			i++
		}
		if i > 0 {
			s.iv = append(s.iv[:0], s.iv[i:]...)
		}
		return
	}
	// Find insertion point: first interval with iv.end >= start.
	i := 0
	for i < len(s.iv) && s.iv[i].end < start {
		i++
	}
	j := i
	for j < len(s.iv) && s.iv[j].start <= end {
		if s.iv[j].start < start {
			start = s.iv[j].start
		}
		if s.iv[j].end > end {
			end = s.iv[j].end
		}
		j++
	}
	// Splice [start, end) over s.iv[i:j] in place: receiving is per-packet
	// work, so the set must not allocate beyond its backing array's growth.
	if i == j {
		s.iv = append(s.iv, interval{})
		copy(s.iv[i+1:], s.iv[i:])
		s.iv[i] = interval{start, end}
		return
	}
	s.iv[i] = interval{start, end}
	if j > i+1 {
		s.iv = append(s.iv[:i+1], s.iv[j:]...)
	}
}

// Cumulative returns the highest offset c such that every byte in
// [0, c) has been received.
func (s *IntervalSet) Cumulative() int64 { return s.cum }

// Bytes returns the total number of bytes covered.
func (s *IntervalSet) Bytes() int64 {
	n := s.cum
	for _, iv := range s.iv {
		n += iv.end - iv.start
	}
	return n
}
