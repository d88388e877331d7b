// Package sim provides the deterministic discrete-time substrate on which the
// whole KV-SSD simulation runs: a virtual clock, busy-resource timelines, and
// splittable pseudo-random number generators.
//
// All simulated components share one *Clock and advance it explicitly; no
// wall-clock time is ever consulted, so every run is exactly reproducible.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants but for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Micros reports the time as fractional microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

// Micros reports the duration as fractional microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports the duration as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }

// Clock is the single source of simulated time. It only moves forward.
//
// The zero Clock is ready to use and starts at time 0.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new time.
// Negative durations are a programming error and panic.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance by negative duration %v", d))
	}
	c.now += Time(d)
	return c.now
}

// AdvanceTo moves the clock forward to t. Moving backwards is a no-op:
// a resource that finished in the past does not rewind time.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}
