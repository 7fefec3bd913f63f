package harness

import (
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/store"
	"nacho/internal/systems"
)

// withStore installs a fresh persistent store for one test, restoring the
// previous (normally nil) one afterwards.
func withStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := SetStore(s)
	t.Cleanup(func() {
		SetStore(prev)
		if err := s.Close(); err != nil {
			t.Errorf("store write error: %v", err)
		}
	})
	return s
}

// TestStoreRoundTripResult pins result fidelity through the store: a
// store-served result is identical — counters, registers, output, words — to
// the executed one it replays.
func TestStoreRoundTripResult(t *testing.T) {
	withStore(t)
	p := mustProgram(t, "crc")
	cfg := DefaultRunConfig()

	cold, err := Run(p, systems.KindNACHO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := Status()
	warm, err := Run(p, systems.KindNACHO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := Status()
	if got := after.RunsStarted - before.RunsStarted; got != 0 {
		t.Errorf("store-served run executed %d simulations, want 0", got)
	}
	if got := after.StoreHits - before.StoreHits; got != 1 {
		t.Errorf("store hit delta = %d, want 1", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("store-served result differs:\ncold %+v\nwarm %+v", cold, warm)
	}
}

// TestStoreCachesErrorOutcome: deterministic simulations fail
// deterministically, so an error outcome is served from the store with the
// same message and no re-execution.
func TestStoreCachesErrorOutcome(t *testing.T) {
	withStore(t)
	p := mustProgram(t, "crc")
	cfg := DefaultRunConfig()
	cfg.MaxInstructions = 10 // far below the benchmark's length: guaranteed budget error

	_, coldErr := Run(p, systems.KindNACHO, cfg)
	if coldErr == nil {
		t.Fatal("10-instruction budget did not fail")
	}
	before := Status()
	_, warmErr := Run(p, systems.KindNACHO, cfg)
	if warmErr == nil || warmErr.Error() != coldErr.Error() {
		t.Errorf("stored error %q, executed error %q", warmErr, coldErr)
	}
	if got := Status().RunsStarted - before.RunsStarted; got != 0 {
		t.Errorf("stored error still executed %d simulations", got)
	}
}

// TestWarmStoreRegeneration is the tentpole property: regenerating fig5
// against a populated store executes zero simulations and renders a report
// byte-identical to the cold one. Each pass starts from an empty run cache,
// as a fresh process would, so the warm pass reads the store.
func TestWarmStoreRegeneration(t *testing.T) {
	withStore(t)
	benchmarks := []string{"crc", "aes"}

	ResetRunCache()
	cold, err := RunNamedExperiment("fig5", benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	ResetRunCache()
	before := Status()
	warm, err := RunNamedExperiment("fig5", benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	after := Status()
	if got := after.RunsStarted - before.RunsStarted; got != 0 {
		t.Errorf("warm regeneration executed %d simulations, want 0", got)
	}
	if after.StoreHits == before.StoreHits {
		t.Error("warm regeneration recorded no store hits")
	}
	if cold.String() != warm.String() {
		t.Errorf("warm report not byte-identical:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
	if cold.CSV() != warm.CSV() {
		t.Error("warm CSV not byte-identical")
	}
}

// TestProbedRunsBypassStore is the satellite regression test: a probed run
// must bypass the persistent store on BOTH sides — never write its
// instrumentation-perturbed record, and never be served a stored one.
func TestProbedRunsBypassStore(t *testing.T) {
	s := withStore(t)
	p := mustProgram(t, "crc")
	probed := DefaultRunConfig()
	probe := sim.NewCounterProbe()
	probed.Probe = probe

	// Write side: a probed run against an empty store must leave it empty.
	if _, err := Run(p, systems.KindNACHO, probed); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Count(); err != nil || n != 0 {
		t.Fatalf("probed run wrote %d store entries (err %v), want 0", n, err)
	}
	if probe.Counters().Loads == 0 {
		t.Fatal("probe observed no events: the probed run did not execute")
	}

	// Populate the store with the unprobed twin of the same configuration.
	if _, err := Run(p, systems.KindNACHO, DefaultRunConfig()); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(); n != 1 {
		t.Fatalf("unprobed run stored %d entries, want 1", n)
	}

	// Read side: the probed run must execute (the probe must fire) even
	// though an entry for the unprobed configuration exists.
	probe2 := sim.NewCounterProbe()
	probed.Probe = probe2
	storeHitsBefore := Status().StoreHits
	if _, err := Run(p, systems.KindNACHO, probed); err != nil {
		t.Fatal(err)
	}
	if probe2.Counters().Loads == 0 {
		t.Fatal("probed run was served from the store: probe observed nothing")
	}
	if got := Status().StoreHits - storeHitsBefore; got != 0 {
		t.Errorf("probed run counted %d store hits, want 0", got)
	}
	if n, _ := s.Count(); n != 1 {
		t.Error("probed run added a store entry")
	}
}

// TestCorruptStoreEntryReexecutes closes the corruption loop at the harness
// level: a bit-flipped entry is evicted, the run transparently re-executes
// with an identical result, and the slot heals.
func TestCorruptStoreEntryReexecutes(t *testing.T) {
	s := withStore(t)
	p := mustProgram(t, "crc")
	cfg := DefaultRunConfig()

	cold, err := Run(p, systems.KindNACHO, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the single stored entry in place.
	img, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	key := identity(img, systems.KindNACHO, cfg, true)
	path := s.Dir() + "/objects/" + key.Digest()[:2] + "/" + key.Digest()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	before := Status()
	again, err := Run(p, systems.KindNACHO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := Status().RunsStarted - before.RunsStarted; got != 1 {
		t.Errorf("corrupt entry triggered %d executions, want exactly 1 (re-execution)", got)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Error("re-executed result differs from the original")
	}
	if s.Stats().CorruptEvicted != 1 {
		t.Errorf("CorruptEvicted = %d, want 1", s.Stats().CorruptEvicted)
	}

	// The re-execution re-stored the entry: next request is a hit again.
	before = Status()
	if _, err := Run(p, systems.KindNACHO, cfg); err != nil {
		t.Fatal(err)
	}
	if got := Status().RunsStarted - before.RunsStarted; got != 0 {
		t.Error("healed entry was not served from the store")
	}
}

// TestStoreServesAcrossEngines pins the sharing the engine-free identity
// intends: a cell stored by a run on the reference interpreter is served to
// an AOT request without executing.
func TestStoreServesAcrossEngines(t *testing.T) {
	withStore(t)
	p := mustProgram(t, "crc")
	cfg := DefaultRunConfig()
	cfg.Reference = true

	ref, err := Run(p, systems.KindNACHO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Reference = false
	before := Status()
	aot, err := Run(p, systems.KindNACHO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := Status()
	if got := after.RunsStarted - before.RunsStarted; got != 0 {
		t.Errorf("aot request executed %d simulations, want 0 (served from the ref cell)", got)
	}
	if got := after.StoreHits - before.StoreHits; got != 1 {
		t.Errorf("store hit delta = %d, want 1", got)
	}
	if !reflect.DeepEqual(ref, aot) {
		t.Errorf("served result differs:\nref %+v\naot %+v", ref, aot)
	}
}

// TestStoreDoesNotPinImage runs a caller-supplied image through the store
// path and requires the image to be collectable afterwards: the run's
// identity hashes the image, and a process-wide memo of that hash keyed by
// the image would keep every image, its frozen space and its compiled text
// alive for the life of the process.
func TestStoreDoesNotPinImage(t *testing.T) {
	withStore(t)
	freed := make(chan struct{})
	func() {
		img, err := program.FromSource("pinned", "_start:\n li t0, 7\n li t1, 0x000F0004\n sw t0, (t1)\n ebreak\n")
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(img, func(*program.Image) { close(freed) })
		if _, err := RunImage(img, systems.KindNACHO, DefaultRunConfig(), false); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the image outlived its run through the store")
}
