package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAdmitBasics(t *testing.T) {
	s := NewShared(10_000, 1.0)
	if !s.Admit(0, 1000) {
		t.Fatal("empty buffer rejected a packet")
	}
	if s.Used() != 1000 {
		t.Fatalf("Used = %d", s.Used())
	}
	s.Release(1000)
	if s.Used() != 0 {
		t.Fatalf("Used after release = %d", s.Used())
	}
}

func TestDynamicThreshold(t *testing.T) {
	// α=1, B=10000. With Σ=6000 the threshold is 4000: a queue already at
	// 4000 must be refused, a queue at 3999 admitted.
	s := NewShared(10_000, 1.0)
	if !s.Admit(0, 6000) {
		t.Fatal("setup admit failed")
	}
	if s.Admit(4000, 100) {
		t.Fatal("queue at threshold was admitted")
	}
	if !s.Admit(3999, 100) {
		t.Fatal("queue below threshold was refused")
	}
}

func TestAlphaScaling(t *testing.T) {
	// α=0.5 halves the admissible queue length.
	s := NewShared(10_000, 0.5)
	if s.Admit(5000, 100) {
		t.Fatal("α=0.5: queue of B/2 admitted on empty buffer")
	}
	if !s.Admit(4999, 100) {
		t.Fatal("α=0.5: queue below α·B refused")
	}
}

func TestTotalCapacityHardLimit(t *testing.T) {
	s := NewShared(1000, 100) // huge α: only the hard limit binds
	if !s.Admit(0, 900) {
		t.Fatal("900/1000 refused")
	}
	if s.Admit(0, 200) {
		t.Fatal("admission past Total")
	}
}

func TestUnboundedBuffer(t *testing.T) {
	s := NewShared(0, 1.0)
	for i := 0; i < 1000; i++ {
		if !s.Admit(int64(i)*1500, 1500) {
			t.Fatal("unbounded buffer refused a packet")
		}
	}
	if s.Free() != 0 {
		t.Fatalf("Free on unbounded = %d", s.Free())
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release underflow did not panic")
		}
	}()
	NewShared(1000, 1).Release(1)
}

// Property: under any admit/release trace, Used stays within [0, Total]
// and equals admitted-released exactly.
func TestAccountingProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewShared(100_000, 0.5+rng.Float64())
		var held []int64
		var sum int64
		for i := 0; i < 500; i++ {
			if rng.Intn(2) == 0 {
				n := int64(rng.Intn(1500)) + 1
				if s.Admit(int64(rng.Intn(50_000)), n) {
					held = append(held, n)
					sum += n
				}
			} else if len(held) > 0 {
				n := held[len(held)-1]
				held = held[:len(held)-1]
				s.Release(n)
				sum -= n
			}
			if s.Used() != sum || s.Used() < 0 || s.Used() > s.Total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (DT headroom): while the pool is below Total, a packet for an
// empty queue (qlen 0) of size ≤ threshold is always admitted — DT never
// starves a newly active queue.
func TestNewQueueNeverStarvedProperty(t *testing.T) {
	prop := func(fillRaw uint16) bool {
		s := NewShared(100_000, 1.0)
		fill := int64(fillRaw) % 99_000
		if fill > 0 && !s.Admit(0, fill) {
			return false
		}
		if s.Threshold() > 1 {
			return s.Admit(0, 1)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
