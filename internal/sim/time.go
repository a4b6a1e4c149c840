package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulation timestamp in integer picoseconds since
// the start of the run. Picoseconds are fine enough to represent the
// serialization time of a single bit at 400 Gbps (2.5 ps) without
// rounding, and an int64 still covers over 106 days of simulated time.
type Time int64

// Duration is a span of simulated time in integer picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a sentinel for "no deadline". It is far enough in the future
// that no experiment reaches it.
const Forever Time = 1<<63 - 1

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts the absolute timestamp into a Duration since time 0.
func (t Time) Duration() Duration { return Duration(t) }

// String formats t with nanosecond precision, e.g. "1.234567ms".
func (t Time) String() string { return Duration(t).String() }

// Seconds returns d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration using Go's standard duration syntax at
// nanosecond resolution; sub-nanosecond remainders are printed as "+Nps".
func (d Duration) String() string {
	ns := d / Nanosecond
	ps := d % Nanosecond
	if ps == 0 {
		return time.Duration(ns).String()
	}
	return fmt.Sprintf("%s+%dps", time.Duration(ns), ps)
}

// Millis builds a Duration from floating-point milliseconds.
func Millis(ms float64) Duration { return Duration(ms * float64(Millisecond)) }
