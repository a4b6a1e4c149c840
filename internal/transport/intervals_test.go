package transport

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	var s IntervalSet
	s.Add(0, 1000)
	if got := s.Cumulative(); got != 1000 {
		t.Fatalf("cum = %d, want 1000", got)
	}
	s.Add(2000, 3000) // hole at [1000,2000)
	if got := s.Cumulative(); got != 1000 {
		t.Fatalf("cum with hole = %d", got)
	}
	s.Add(1000, 2000) // fill the hole
	if got := s.Cumulative(); got != 3000 {
		t.Fatalf("cum after fill = %d", got)
	}
	if s.Spans() != 1 {
		t.Fatalf("spans = %d, want 1 after merge", s.Spans())
	}
}

func TestIntervalMergeAdjacent(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(10, 20) // adjacent, must merge
	if s.Spans() != 1 || s.Bytes() != 20 {
		t.Fatalf("spans=%d bytes=%d", s.Spans(), s.Bytes())
	}
}

func TestIntervalOverlapAbsorb(t *testing.T) {
	var s IntervalSet
	s.Add(100, 200)
	s.Add(50, 300) // absorbs the first
	if s.Spans() != 1 || s.Bytes() != 250 {
		t.Fatalf("spans=%d bytes=%d", s.Spans(), s.Bytes())
	}
	s.Add(150, 180) // fully contained, no-op
	if s.Bytes() != 250 {
		t.Fatalf("contained add changed bytes: %d", s.Bytes())
	}
}

func TestIntervalContains(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	s.Add(30, 40)
	for _, c := range []struct {
		a, b int64
		want bool
	}{
		{10, 20, true}, {12, 18, true}, {10, 21, false},
		{25, 26, false}, {30, 40, true}, {15, 35, false}, {5, 5, true},
	} {
		if got := s.Contains(c.a, c.b); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntervalIgnoresEmpty(t *testing.T) {
	var s IntervalSet
	s.Add(10, 10)
	s.Add(20, 5)
	if s.Spans() != 0 || s.Bytes() != 0 {
		t.Fatalf("empty adds stored: spans=%d", s.Spans())
	}
}

// Property: against a brute-force bitmap model, IntervalSet agrees on
// cumulative point, total bytes, and span disjointness. Half the
// sequences are mostly in order, as a receiver sees them: each range
// starts where the model's prefix ends, now and then skipping ahead to
// leave a hole or reaching back to repeat received bytes.
func TestIntervalSetModelProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const space = 500
		var s IntervalSet
		model := make([]bool, space)
		inOrder := seed%2 == 0
		for op := 0; op < 60; op++ {
			a := int64(rng.Intn(space))
			if inOrder {
				for a = 0; a < space && model[a]; a++ {
				}
				switch r := rng.Intn(8); {
				case r == 0:
					a += int64(rng.Intn(40))
				case r == 1:
					a -= int64(rng.Intn(40))
				}
				a = min(max(a, 0), space)
			}
			b := a + int64(rng.Intn(50))
			if b > space {
				b = space
			}
			s.Add(a, b)
			for i := a; i < b; i++ {
				model[i] = true
			}
		}
		// cumulative
		cum := int64(0)
		for cum < space && model[cum] {
			cum++
		}
		if s.Cumulative() != cum {
			return false
		}
		// disjointness: the spans above the prefix are sorted and apart
		last := s.cum
		for _, iv := range s.iv {
			if iv.start <= last || iv.end <= iv.start {
				return false
			}
			last = iv.end
		}
		// total bytes
		var total int64
		for _, v := range model {
			if v {
				total++
			}
		}
		if s.Bytes() != total {
			return false
		}
		// spot-check Contains
		for k := 0; k < 20; k++ {
			a := int64(rng.Intn(space))
			b := a + int64(rng.Intn(40))
			if b > space {
				b = space
			}
			want := true
			for i := a; i < b; i++ {
				if !model[i] {
					want = false
					break
				}
			}
			if s.Contains(a, b) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An in-order receiver's set is a number: a fresh set taking a flow's
// ranges in order, each starting where the last ended and some repeated,
// never allocates.
func TestIntervalInOrderAddsDoNotAllocate(t *testing.T) {
	const size = 100_000
	var spans int
	n := testing.AllocsPerRun(100, func() {
		var s IntervalSet
		for off := int64(0); off < size; off += 1000 {
			s.Add(off, off+1000)
			s.Add(off+200, off+700) // a repeat of received bytes
		}
		if s.Cumulative() != size {
			t.Fatalf("cumulative %d, want %d", s.Cumulative(), size)
		}
		spans = s.Spans()
	})
	if n != 0 {
		t.Fatalf("a flow of in-order Adds allocated %.1f times, want 0", n)
	}
	if spans != 1 {
		t.Fatalf("%d spans, want 1", spans)
	}
}
