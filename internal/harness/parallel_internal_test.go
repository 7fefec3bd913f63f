package harness

import (
	"io"
	"reflect"
	"sync"
	"testing"

	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/store"
	"nacho/internal/systems"
)

func mustImage(t testing.TB, name string) *program.Image {
	t.Helper()
	img, err := mustProgram(t, name).Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestIdentityCoversResultAffectingFields perturbs every RunConfig field, one
// at a time. A field that can change a result must change the identity; a
// field on the result-invariant list must not, so the cache and the store
// share the run across it. A new field on neither list fails the test.
func TestIdentityCoversResultAffectingFields(t *testing.T) {
	img := mustImage(t, "crc")
	base := identity(img, systems.KindNACHO, DefaultRunConfig(), true)
	affects := map[string]func(*RunConfig){
		"CacheSize":              func(c *RunConfig) { c.CacheSize = 1024 },
		"Ways":                   func(c *RunConfig) { c.Ways = 4 },
		"Schedule":               func(c *RunConfig) { c.Schedule = power.Periodic{Period: 1000} },
		"ForcedCheckpointPeriod": func(c *RunConfig) { c.ForcedCheckpointPeriod = 500 },
		"Verify":                 func(c *RunConfig) { c.Verify = false },
		"MaxInstructions":        func(c *RunConfig) { c.MaxInstructions = 1 << 20 },
		"DirtyThreshold":         func(c *RunConfig) { c.DirtyThreshold = 8 },
		"EnergyPrediction":       func(c *RunConfig) { c.EnergyPrediction = true },
		"MaxCycles":              func(c *RunConfig) { c.MaxCycles = 1 << 21 },
		"FinalFlush":             func(c *RunConfig) { c.FinalFlush = true },
	}
	// Observation, the engine (the equivalence suite's referee switch) and
	// the span a run reports under cannot change a result.
	invariant := map[string]func(*RunConfig){
		"Trace":     func(c *RunConfig) { c.Trace = io.Discard },
		"Probe":     func(c *RunConfig) { c.Probe = sim.NewCounterProbe() },
		"Reference": func(c *RunConfig) { c.Reference = true },
		"Span":      func(c *RunConfig) { c.Span = 7 },
	}
	typ := reflect.TypeOf(RunConfig{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cfg := DefaultRunConfig()
		if mutate, ok := affects[name]; ok {
			mutate(&cfg)
			if identity(img, systems.KindNACHO, cfg, true) == base {
				t.Errorf("RunConfig.%s does not contribute to the run identity", name)
			}
		} else if mutate, ok := invariant[name]; ok {
			mutate(&cfg)
			if identity(img, systems.KindNACHO, cfg, true) != base {
				t.Errorf("RunConfig.%s cannot change a result but splits the run identity", name)
			}
		} else {
			t.Errorf("RunConfig field %s is on neither list: add it to the identity and affects, or to invariant", name)
		}
	}

	if identity(img, systems.KindClank, DefaultRunConfig(), true) == base {
		t.Error("system kind does not contribute to the run identity")
	}
	if identity(mustImage(t, "sha"), systems.KindNACHO, DefaultRunConfig(), true) == base {
		t.Error("benchmark does not contribute to the run identity")
	}
	if identity(img, systems.KindNACHO, DefaultRunConfig(), false) == base {
		t.Error("the golden check does not contribute to the run identity")
	}
}

// TestIdentitySchedule checks the Schedule.Key contract end to end: pointer
// schedules with equal parameters share an identity (a %v rendering never
// matched them, defeating the cache), while any parameter difference —
// notably the seed, which the X6 variance experiment sweeps — splits it.
func TestIdentitySchedule(t *testing.T) {
	img := mustImage(t, "crc")
	withSched := func(s power.Schedule) store.Key {
		cfg := DefaultRunConfig()
		cfg.Schedule = s
		return identity(img, systems.KindNACHO, cfg, true)
	}
	if withSched(power.NewUniform(10, 50, 1)) != withSched(power.NewUniform(10, 50, 1)) {
		t.Error("equal-parameter Uniform schedules got distinct identities (pointer identity leaked)")
	}
	if withSched(power.NewUniform(10, 50, 1)) == withSched(power.NewUniform(10, 50, 2)) {
		t.Error("seed does not contribute to the run identity")
	}
	if withSched(power.Periodic{Period: 100}) == withSched(power.Periodic{Period: 200}) {
		t.Error("period does not contribute to the run identity")
	}
	if withSched(power.Periodic{Period: 100}) == withSched(power.NewAt(100)) {
		t.Error("schedule type does not contribute to the run identity")
	}
}

// TestRunCacheDirtyThresholdRegression reproduces the original bug: two
// configs differing only in DirtyThreshold used to share one cache entry, so
// the X1 threshold sweep could read a stale result. They must run
// separately, and identical configs must still hit.
func TestRunCacheDirtyThresholdRegression(t *testing.T) {
	ResetRunCache()
	tl := newTally()
	p, ok := program.ByName("quicksort")
	if !ok {
		t.Fatal("quicksort benchmark missing")
	}
	plain, err := tl.get(p, systems.KindNACHO, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig()
	cfg.DirtyThreshold = 8
	adaptive, err := tl.get(p, systems.KindNACHO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tl.runs != 2 {
		t.Fatalf("configs differing only in DirtyThreshold aliased to %d cache entries", tl.runs)
	}
	if adaptive.Counters == plain.Counters {
		t.Error("adaptive run returned the plain run's counters (stale cache result)")
	}
	if _, err := tl.get(p, systems.KindNACHO, cfg); err != nil {
		t.Fatal(err)
	}
	if tl.runs != 2 || tl.hits != 1 {
		t.Errorf("identical config re-ran: %d runs, %d hits", tl.runs, tl.hits)
	}
}

// TestRunCacheSingleflight issues the same run from many goroutines at once;
// exactly one simulation may execute, with every other caller blocking on
// and sharing its result.
func TestRunCacheSingleflight(t *testing.T) {
	ResetRunCache()
	tl := newTally()
	p, _ := program.ByName("crc")
	const callers = 8
	results := make([]uint64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := tl.get(p, systems.KindVolatile, DefaultRunConfig())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Counters.Cycles
		}()
	}
	wg.Wait()
	if tl.runs != 1 {
		t.Errorf("singleflight executed %d simulations for one key", tl.runs)
	}
	if tl.hits != callers-1 {
		t.Errorf("hits = %d, want %d", tl.hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw %d cycles, caller 0 saw %d", i, results[i], results[0])
		}
	}
}
