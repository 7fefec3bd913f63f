package power

import "testing"

func TestNone(t *testing.T) {
	if (None{}).NextFailureAfter(0) != NoFailure {
		t.Error("None scheduled a failure")
	}
}

func TestPeriodic(t *testing.T) {
	p := Periodic{Period: 100}
	cases := []struct{ at, want uint64 }{
		{0, 100}, {1, 100}, {99, 100}, {100, 200}, {101, 200}, {250, 300},
	}
	for _, c := range cases {
		if got := p.NextFailureAfter(c.at); got != c.want {
			t.Errorf("NextFailureAfter(%d) = %d, want %d", c.at, got, c.want)
		}
	}
	if (Periodic{}).NextFailureAfter(5) != NoFailure {
		t.Error("zero period should never fail")
	}
}

func TestUniformDeterministicAndMonotonic(t *testing.T) {
	a := NewUniform(10, 50, 42)
	b := NewUniform(10, 50, 42)
	var cycle uint64
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		fa := a.NextFailureAfter(cycle)
		fb := b.NextFailureAfter(cycle)
		if fa != fb {
			t.Fatalf("same seed diverged at step %d: %d vs %d", i, fa, fb)
		}
		if fa <= cycle {
			t.Fatalf("failure %d not after cycle %d", fa, cycle)
		}
		if fa < prev {
			t.Fatalf("failure sequence went backwards: %d after %d", fa, prev)
		}
		gap := fa - cycle
		if cycle == prev && (gap == 0 || fa-prev > 50*1000) {
			t.Fatalf("implausible gap %d", gap)
		}
		prev = fa
		cycle = fa // simulate consuming the failure
	}
}

func TestUniformBounds(t *testing.T) {
	u := NewUniform(10, 20, 7)
	var cycle uint64
	for i := 0; i < 2000; i++ {
		next := u.NextFailureAfter(cycle)
		gap := next - cycle
		if gap < 1 || gap > 20 {
			t.Fatalf("gap %d outside (0, 20]", gap)
		}
		cycle = next
	}
}

func TestUniformZeroSpan(t *testing.T) {
	u := NewUniform(5, 5, 1)
	if got := u.NextFailureAfter(0); got != 5 {
		t.Errorf("fixed-width schedule first failure = %d, want 5", got)
	}
}

func TestAtSchedule(t *testing.T) {
	a := NewAt(30, 10, 20)
	cases := []struct{ at, want uint64 }{
		{0, 10}, {9, 10}, {10, 20}, {19, 20}, {20, 30}, {30, NoFailure},
	}
	for _, c := range cases {
		if got := a.NextFailureAfter(c.at); got != c.want {
			t.Errorf("NextFailureAfter(%d) = %d, want %d", c.at, got, c.want)
		}
	}
	if NewAt().NextFailureAfter(0) != NoFailure {
		t.Error("empty At schedule fired")
	}
}

func TestScheduleKeys(t *testing.T) {
	keys := []string{
		None{}.Key(),
		Periodic{Period: 100}.Key(),
		Periodic{Period: 200}.Key(),
		NewUniform(10, 50, 1).Key(),
		NewUniform(10, 50, 2).Key(),
		NewUniform(10, 51, 1).Key(),
		NewUniform(11, 50, 1).Key(),
		NewAt(5, 10).Key(),
		NewAt(5, 11).Key(),
	}
	seen := map[string]int{}
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			t.Errorf("schedules %d and %d share key %q", j, i, k)
		}
		seen[k] = i
	}
	if NewUniform(10, 50, 1).Key() != NewUniform(10, 50, 1).Key() {
		t.Error("equal-parameter Uniform schedules have distinct keys")
	}
	if NewAt(10, 5).Key() != NewAt(5, 10).Key() {
		t.Error("At key depends on argument order, not the failure sequence")
	}
}

func TestUniformCloneReplaysFromStart(t *testing.T) {
	orig := NewUniform(10, 50, 42)
	var seq []uint64
	var cycle uint64
	for i := 0; i < 5; i++ {
		cycle = orig.NextFailureAfter(cycle)
		seq = append(seq, cycle)
	}

	clone := orig.Clone()
	var c uint64
	for i := 0; i < 5; i++ {
		c = clone.NextFailureAfter(c)
		if c != seq[i] {
			t.Fatalf("clone step %d = %d, want %d", i, c, seq[i])
		}
	}

	// Advancing the clone must not have perturbed the original: its next
	// answers track a reference schedule advanced identically.
	ref := NewUniform(10, 50, 42)
	rc := uint64(0)
	for i := 0; i < 5; i++ {
		rc = ref.NextFailureAfter(rc)
	}
	for i := 0; i < 5; i++ {
		cycle = orig.NextFailureAfter(cycle)
		rc = ref.NextFailureAfter(rc)
		if cycle != rc {
			t.Fatalf("original diverged after clone use: %d vs %d", cycle, rc)
		}
	}
}

func TestAtInstants(t *testing.T) {
	a := NewAt(30, 10, 20)
	got := a.Instants()
	want := []uint64{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("Instants() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Instants() = %v, want %v", got, want)
		}
	}
	got[0] = 999
	if a.Instants()[0] != 10 {
		t.Error("Instants() returned aliased storage; mutating the copy changed the schedule")
	}
}

func TestFromBytes(t *testing.T) {
	if got := FromBytes(nil).Instants(); len(got) != 0 {
		t.Errorf("FromBytes(nil) = %v, want empty", got)
	}

	// Two full words and a leftover byte: gaps 1+4*0x0201, 1+4*0x0403, 1+5.
	b := []byte{0x01, 0x02, 0x03, 0x04, 0x05}
	want := []uint64{0, 0, 0}
	want[0] = 1 + 4*0x0201
	want[1] = want[0] + 1 + 4*0x0403
	want[2] = want[1] + 1 + 5
	got := FromBytes(b).Instants()
	if len(got) != len(want) {
		t.Fatalf("FromBytes(%x) = %v, want %v", b, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FromBytes(%x) = %v, want %v", b, got, want)
		}
	}

	// Zero words still advance by at least one cycle each: instants stay
	// strictly increasing, so the schedule can never fire twice at once.
	zeros := FromBytes(make([]byte, 10)).Instants()
	for i := 1; i < len(zeros); i++ {
		if zeros[i] <= zeros[i-1] {
			t.Fatalf("instants not strictly increasing: %v", zeros)
		}
	}

	// Long inputs are capped, not unbounded.
	long := FromBytes(make([]byte, 4096)).Instants()
	if len(long) > 32 {
		t.Errorf("FromBytes produced %d instants, want <= 32", len(long))
	}

	// Same bytes, same schedule — the fuzzer's reproducibility contract.
	if FromBytes(b).Key() != FromBytes(b).Key() {
		t.Error("FromBytes is not deterministic")
	}
}

// TestPeriodicOverflowNearMax pins the uint64 overflow fix: near 2^64 the
// pre-fix (cycle/Period+1)*Period wrapped to a small bogus instant (breaking
// the strictly-after contract) instead of saturating to NoFailure.
func TestPeriodicOverflowNearMax(t *testing.T) {
	cases := []struct {
		period, at, want uint64
	}{
		{100, NoFailure - 10, NoFailure},
		{100, NoFailure - 1, NoFailure},
		{100, NoFailure, NoFailure},
		{1, NoFailure - 1, NoFailure}, // next multiple would be the sentinel itself
		{1, NoFailure, NoFailure},     // cycle/1+1 wraps q to 0
		{NoFailure - 1, 5, NoFailure - 1},
		{NoFailure - 1, NoFailure - 1, NoFailure},
		{1 << 63, (1 << 63) + 1, NoFailure}, // 2*Period wraps to 0
	}
	for _, c := range cases {
		p := Periodic{Period: c.period}
		if got := p.NextFailureAfter(c.at); got != c.want {
			t.Errorf("Periodic{%d}.NextFailureAfter(%d) = %d, want %d", c.period, c.at, got, c.want)
		}
	}
}

// TestUniformDrawSaturatesNearMax pins the companion wrap in Uniform.draw:
// from+d past 2^64 must saturate to NoFailure, and NextFailureAfter's advance
// loop must terminate once the sequence saturates (pre-fix the wrapped small
// value kept the loop spinning forever).
func TestUniformDrawSaturatesNearMax(t *testing.T) {
	u := NewUniform(10, 20, 1)
	if got := u.draw(NoFailure - 5); got != NoFailure {
		t.Errorf("draw(NoFailure-5) = %d, want NoFailure", got)
	}
	if got := u.draw(NoFailure); got != NoFailure {
		t.Errorf("draw(NoFailure) = %d, want NoFailure", got)
	}

	// White-box: park the sequence near the top of the domain and query past
	// it; the loop must saturate and answer NoFailure, not wrap or hang.
	u = NewUniform(10, 20, 1)
	u.next = NoFailure - 3
	u.lastAsk = NoFailure - 4
	if got := u.NextFailureAfter(NoFailure - 2); got != NoFailure {
		t.Errorf("NextFailureAfter(NoFailure-2) = %d, want NoFailure", got)
	}
	// Saturated schedules stay saturated under further queries.
	if got := u.NextFailureAfter(NoFailure - 1); got != NoFailure {
		t.Errorf("saturated schedule answered %d, want NoFailure", got)
	}
}

// TestUniformInterleavedRunsPanic pins the reuse-contract fix. Pre-fix, the
// silent restart heuristic made two interleaved runs over one schedule value
// corrupt each other: run B's backwards query restarted the RNG under run A,
// so A's subsequent instants silently came from a restarted sequence and the
// observed failures depended on run interleaving order. Post-fix the
// backwards query panics instead of corrupting anything.
func TestUniformInterleavedRunsPanic(t *testing.T) {
	u := NewUniform(10, 50, 42)
	runA := u.NextFailureAfter(0)
	runA = u.NextFailureAfter(runA) // run A is mid-flight, lastAsk > 0

	defer func() {
		if recover() == nil {
			t.Fatal("interleaved second run's backwards query did not panic; " +
				"silent RNG restart would make failure instants run-order-dependent")
		}
	}()
	u.NextFailureAfter(0) // run B starts over the same value
}

// TestUniformResetReplays verifies the sanctioned sequential-reuse path: an
// explicit Reset rewinds the value to the exact sequence a fresh clone sees.
func TestUniformResetReplays(t *testing.T) {
	u := NewUniform(10, 50, 42)
	var first []uint64
	cycle := uint64(0)
	for i := 0; i < 8; i++ {
		cycle = u.NextFailureAfter(cycle)
		first = append(first, cycle)
	}

	u.Reset()
	cycle = 0
	for i := 0; i < 8; i++ {
		cycle = u.NextFailureAfter(cycle)
		if cycle != first[i] {
			t.Fatalf("after Reset, instant %d = %d, want %d", i, cycle, first[i])
		}
	}
}

// scheduleUnderTest pairs a fresh-instance factory with a name so properties
// can be checked uniformly across every Schedule implementation.
type scheduleUnderTest struct {
	name string
	mk   func() Schedule
}

func allSchedules() []scheduleUnderTest {
	return []scheduleUnderTest{
		{"none", func() Schedule { return None{} }},
		{"periodic", func() Schedule { return Periodic{Period: 37} }},
		{"uniform", func() Schedule { return NewUniform(3, 29, 99) }},
		{"at", func() Schedule { return NewAt(5, 17, 17, 100, 4096) }},
		{"frombytes", func() Schedule { return FromBytes([]byte{9, 0, 1, 2, 3}) }},
	}
}

// TestSchedulePropertyStrictlyAfter checks the interface contract for every
// implementation: NextFailureAfter(c) is either NoFailure or strictly greater
// than c, and consuming each failure yields a non-decreasing instant sequence.
func TestSchedulePropertyStrictlyAfter(t *testing.T) {
	for _, s := range allSchedules() {
		t.Run(s.name, func(t *testing.T) {
			sched := s.mk()
			cycle := uint64(0)
			for i := 0; i < 500; i++ {
				next := sched.NextFailureAfter(cycle)
				if next == NoFailure {
					return
				}
				if next <= cycle {
					t.Fatalf("NextFailureAfter(%d) = %d, not strictly after", cycle, next)
				}
				cycle = next
			}
		})
	}
}

// TestSchedulePropertyCloneIndependence interleaves queries on an original
// and its clone; each must see the sequence a dedicated fresh instance sees,
// regardless of what the other is asked in between.
func TestSchedulePropertyCloneIndependence(t *testing.T) {
	for _, s := range allSchedules() {
		t.Run(s.name, func(t *testing.T) {
			orig, ref := s.mk(), s.mk()
			clone := orig.Clone()
			cloneRef := s.mk()
			var oc, cc uint64
			for i := 0; i < 200; i++ {
				// Interleave: one query on the original, one on the clone.
				if got, want := orig.NextFailureAfter(oc), ref.NextFailureAfter(oc); got != want {
					t.Fatalf("original step %d: %d, want %d", i, got, want)
				} else if want == NoFailure {
					break
				} else {
					oc = want
				}
				if got, want := clone.NextFailureAfter(cc), cloneRef.NextFailureAfter(cc); got != want {
					t.Fatalf("clone step %d: %d, want %d", i, got, want)
				} else if want != NoFailure {
					cc = want
				}
			}
		})
	}
}

// TestSchedulePropertyKeyRoundTrip checks that equal parameters give equal
// keys (runs may share cached results) and distinct parameters give distinct
// keys (no silent aliasing of different experiments).
func TestSchedulePropertyKeyRoundTrip(t *testing.T) {
	for _, s := range allSchedules() {
		if s.mk().Key() != s.mk().Key() {
			t.Errorf("%s: equal parameters produced distinct keys", s.name)
		}
		if k := s.mk().Clone().Key(); k != s.mk().Key() {
			t.Errorf("%s: Clone changed the key to %q", s.name, k)
		}
	}
	distinct := []Schedule{
		None{},
		Periodic{Period: 37}, Periodic{Period: 38},
		NewUniform(3, 29, 99), NewUniform(3, 29, 100), NewUniform(3, 30, 99), NewUniform(4, 29, 99),
		NewAt(5, 17), NewAt(5, 18), NewAt(5),
		FromBytes([]byte{9, 0, 1, 2, 3}), FromBytes([]byte{9, 0, 1, 2}),
	}
	seen := map[string]int{}
	for i, sched := range distinct {
		k := sched.Key()
		if j, dup := seen[k]; dup {
			t.Errorf("schedules %d and %d alias key %q", j, i, k)
		}
		seen[k] = i
	}
}

func TestStatelessClonesAreIdentities(t *testing.T) {
	if _, ok := (None{}).Clone().(None); !ok {
		t.Error("None.Clone changed type")
	}
	p := Periodic{Period: 7}
	if p.Clone() != Schedule(p) {
		t.Error("Periodic.Clone changed value")
	}
	a := NewAt(3, 9)
	if a.Clone().NextFailureAfter(0) != 3 {
		t.Error("At.Clone lost instants")
	}
}
