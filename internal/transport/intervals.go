package transport

// IntervalSet tracks received byte ranges on the receiver side and yields
// the cumulative acknowledgment point. Ranges are half-open [start, end)
// and kept sorted and disjoint; insertion merges neighbours.
type IntervalSet struct {
	iv []interval
}

type interval struct{ start, end int64 }

// Add records the range [start, end). Overlapping or adjacent ranges are
// merged. Empty or inverted ranges are ignored.
func (s *IntervalSet) Add(start, end int64) {
	if end <= start {
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

// CumulativeFrom returns the highest offset c ≥ base such that every byte
// in [base, c) has been received.
func (s *IntervalSet) CumulativeFrom(base int64) int64 {
	for _, iv := range s.iv {
		if iv.start > base {
			break
		}
		if iv.end > base {
			base = iv.end
		}
	}
	return base
}

// Contains reports whether every byte of [start, end) has been received.
func (s *IntervalSet) Contains(start, end int64) bool {
	for _, iv := range s.iv {
		if iv.start <= start && end <= iv.end {
			return true
		}
	}
	return end <= start
}

// Bytes returns the total number of bytes covered.
func (s *IntervalSet) Bytes() int64 {
	var n int64
	for _, iv := range s.iv {
		n += iv.end - iv.start
	}
	return n
}
