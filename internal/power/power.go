// Package power models energy availability for intermittent execution:
// schedules that decide at which active cycle the next power failure strikes
// (paper Section 6.1.4), and helpers for the periodic forward-progress
// checkpoint the paper inserts at half the on-duration (Section 6.2.4).
package power

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// NoFailure is the sentinel returned by schedules that never fail.
const NoFailure = ^uint64(0)

// Schedule decides when power failures occur, measured in *active* cycles
// (time spent computing; the off/recharge time does not advance the
// simulation clock — the paper's overhead metric likewise counts only the
// extra work, not the waiting).
type Schedule interface {
	// NextFailureAfter returns the cycle of the first failure strictly after
	// the given cycle, or NoFailure.
	NextFailureAfter(cycle uint64) uint64

	// Key returns a stable identity of the schedule's parameters. Two
	// schedules with equal keys must produce identical failure sequences; the
	// experiment harness uses the key to decide whether two runs may share a
	// cached result, so a lossy key silently aliases distinct experiments.
	Key() string

	// Clone returns an independent schedule that replays the same failure
	// sequence from cycle 0. Stateless schedules may return themselves;
	// stateful ones (seeded RNGs) must return a fresh value so that reusing
	// one schedule value across runs — sequentially or concurrently — neither
	// mutates shared state nor depends on run order.
	Clone() Schedule
}

// None is the always-on power supply used for the failure-free experiments
// (Figures 5-8).
type None struct{}

// NextFailureAfter always reports that no failure will occur.
func (None) NextFailureAfter(uint64) uint64 { return NoFailure }

// Key identifies the always-on supply.
func (None) Key() string { return "none" }

// Clone returns the schedule itself; None is stateless.
func (n None) Clone() Schedule { return n }

// Periodic fails every Period active cycles: at Period, 2*Period, ...
// It reproduces the paper's fixed on-durations of 5/10/50/100 ms.
type Periodic struct {
	Period uint64
}

// NextFailureAfter returns the next multiple of Period after cycle. Near the
// top of the cycle domain the next multiple would wrap past 2^64 (or collide
// with the NoFailure sentinel); those instants are unreachable in any run, so
// the schedule saturates to NoFailure instead of wrapping to a bogus early
// failure.
func (p Periodic) NextFailureAfter(cycle uint64) uint64 {
	if p.Period == 0 {
		return NoFailure
	}
	q := cycle/p.Period + 1
	if q == 0 || q > (NoFailure-1)/p.Period {
		return NoFailure
	}
	return q * p.Period
}

// Key identifies the schedule by its period.
func (p Periodic) Key() string { return fmt.Sprintf("periodic(%d)", p.Period) }

// Clone returns the schedule itself; Periodic is stateless.
func (p Periodic) Clone() Schedule { return p }

// Uniform draws i.i.d. on-durations uniformly from [Min, Max] cycles using a
// deterministic seed, modelling the harvested-energy variability described in
// the paper's introduction. The sequence of failure instants is fixed by the
// seed, so runs are reproducible.
type Uniform struct {
	Min, Max uint64
	Seed     int64

	rng     *rand.Rand
	next    uint64
	lastAsk uint64
}

// NewUniform creates a seeded random schedule with on-durations in
// [min, max] cycles.
func NewUniform(min, max uint64, seed int64) *Uniform {
	u := &Uniform{Min: min, Max: max, Seed: seed}
	u.Reset()
	return u
}

// Reset rewinds the schedule to replay its seeded sequence from cycle 0.
// It is the explicit alternative to Clone for reusing one schedule value
// across sequential runs.
func (u *Uniform) Reset() {
	u.rng = rand.New(rand.NewSource(u.Seed))
	u.next = u.draw(0)
	u.lastAsk = 0
}

// draw advances the sequence by one on-duration. The sum saturates at
// NoFailure rather than wrapping past 2^64: an instant beyond the cycle
// domain is indistinguishable from "never", and a wrapped small value would
// be a bogus early failure (and could loop NextFailureAfter forever).
func (u *Uniform) draw(from uint64) uint64 {
	span := u.Max - u.Min
	d := u.Min
	if span > 0 {
		d += uint64(u.rng.Int63n(int64(span + 1)))
	}
	if d == 0 {
		d = 1
	}
	if from > NoFailure-d {
		return NoFailure
	}
	return from + d
}

// NextFailureAfter returns the next drawn failure instant after cycle,
// advancing the internal sequence as simulation time passes it. Queries must
// be monotonically non-decreasing: one Uniform value serves exactly one run.
// To reuse a value across runs, Clone it per run (the harness does) or call
// Reset between runs; a backwards query panics rather than silently replaying
// or — worse — continuing the previous run's sequence, which would make
// failure instants depend on run order.
func (u *Uniform) NextFailureAfter(cycle uint64) uint64 {
	if cycle < u.lastAsk {
		panic(fmt.Sprintf("power: Uniform queried backwards (cycle %d after %d); Clone or Reset the schedule per run", cycle, u.lastAsk))
	}
	u.lastAsk = cycle
	for u.next != NoFailure && u.next <= cycle {
		u.next = u.draw(u.next)
	}
	return u.next
}

// Key identifies the schedule by its bounds and seed; the drawn sequence is a
// pure function of all three.
func (u *Uniform) Key() string { return fmt.Sprintf("uniform(%d,%d,%d)", u.Min, u.Max, u.Seed) }

// Clone returns a fresh schedule replaying the same seeded sequence from
// cycle 0, leaving the original's RNG position untouched.
func (u *Uniform) Clone() Schedule { return NewUniform(u.Min, u.Max, u.Seed) }

// At fails at exactly the given active-time instants (sorted internally).
// It is the precision tool of the incorruptibility sweeps: tests place a
// failure at every individual cycle of a program.
type At struct {
	instants []uint64
}

// NewAt builds a schedule failing at each listed cycle.
func NewAt(instants ...uint64) At {
	sorted := make([]uint64, len(instants))
	copy(sorted, instants)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return At{instants: sorted}
}

// Instants returns a copy of the schedule's sorted failure instants.
func (a At) Instants() []uint64 {
	out := make([]uint64, len(a.instants))
	copy(out, a.instants)
	return out
}

// NextFailureAfter returns the first listed instant strictly after cycle.
func (a At) NextFailureAfter(cycle uint64) uint64 {
	i := sort.Search(len(a.instants), func(i int) bool { return a.instants[i] > cycle })
	if i == len(a.instants) {
		return NoFailure
	}
	return a.instants[i]
}

// Key identifies the schedule by its sorted instants.
func (a At) Key() string {
	var b strings.Builder
	b.WriteString("at(")
	for i, x := range a.instants {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(')')
	return b.String()
}

// Clone returns the schedule itself; the instants are never mutated after
// NewAt.
func (a At) Clone() Schedule { return a }

// FromBytes derives a finite failure schedule from raw fuzz-engine bytes.
// Consecutive 16-bit little-endian words become inter-failure gaps of
// 1+4*word cycles (so adjacent byte strings map to nearby schedules, which
// is what coverage-guided mutation wants), a trailing odd byte becomes one
// last short gap, and the instant count is capped so a long input cannot
// request an unbounded outage storm. An empty input yields a failure-free
// schedule, the identity the differential oracle compares against.
func FromBytes(b []byte) At {
	const maxInstants = 32
	var instants []uint64
	cycle := uint64(0)
	for len(b) >= 2 && len(instants) < maxInstants {
		gap := 1 + 4*uint64(uint16(b[0])|uint16(b[1])<<8)
		b = b[2:]
		cycle += gap
		instants = append(instants, cycle)
	}
	if len(b) == 1 && len(instants) < maxInstants {
		cycle += 1 + uint64(b[0])
		instants = append(instants, cycle)
	}
	return NewAt(instants...)
}
