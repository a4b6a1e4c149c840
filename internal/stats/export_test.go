package stats

// Reset empties the distribution while keeping its backing array.
func (d *Dist) Reset() {
	d.vals = d.vals[:0]
	d.sorted = false
}

// Mean returns the sample mean (0 when empty).
func (d *Dist) Mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

// Max returns the largest sample (0 when empty).
func (d *Dist) Max() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	d.sortIfNeeded()
	return d.vals[len(d.vals)-1]
}
