package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nacho/internal/metrics"
)

func testKey() Key {
	return Key{
		Program:                "aes",
		ImageHash:              "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		System:                 "nacho",
		CacheSize:              512,
		Ways:                   2,
		Schedule:               "none",
		ForcedCheckpointPeriod: 0,
		MaxInstructions:        0,
		MaxCycles:              0,
		FinalFlush:             false,
		Verify:                 true,
		CheckGolden:            true,
		ClockHz:                50_000_000,
		HitCycles:              2,
		NVMCycles:              6,
		DirtyThreshold:         0,
		EnergyPrediction:       false,
	}
}

func testEntry(k Key) *Entry {
	e := &Entry{
		Key:        k,
		Outcome:    OutcomeOK,
		ExitCode:   0,
		ResultWord: 0xdeadbeef,
		Results:    []uint32{1, 2, 0xdeadbeef},
		Output:     []byte("hello\n"),
	}
	for i := range e.Regs {
		e.Regs[i] = uint32(i * 7)
	}
	e.Counters = metrics.Counters{Cycles: 123456, Instructions: 4321, Checkpoints: 7,
		NVMReadBytes: 1024, NVMWriteBytes: 2048, CacheHits: 99, CacheMisses: 11}
	return e
}

// goldenDigest pins the on-disk digest derivation: the canonical key
// serialization, and therefore every existing store, silently drifting is
// exactly what this constant is here to catch. If this test fails you have
// changed the store format — bump KeyVersion and regenerate the constant.
const goldenDigest = "d24a630fa30da7534c3e36b80820bda7c440f3bb438d2a702337656d62541de8"

func TestGoldenDigest(t *testing.T) {
	k := testKey()
	if got := k.Digest(); got != goldenDigest {
		t.Fatalf("default-config digest drifted:\n got %s\nwant %s\ncanonical: %s", got, goldenDigest, k.Canonical())
	}
}

// TestDigestSensitivity perturbs every field of the key, one at a time, and
// requires a distinct digest for each: no result-affecting knob may alias in
// the store. Reflection walks the struct so a future field cannot be added
// without extending the perturbation table (the test fails on an unknown
// field).
func TestDigestSensitivity(t *testing.T) {
	base := testKey()
	baseDigest := base.Digest()

	same := testKey()
	if d := same.Digest(); d != baseDigest {
		t.Fatalf("identical keys produced distinct digests: %s vs %s", d, baseDigest)
	}

	perturb := map[string]func(*Key){
		"Program":                func(k *Key) { k.Program = "sha" },
		"ImageHash":              func(k *Key) { k.ImageHash = strings.Repeat("f", 64) },
		"System":                 func(k *Key) { k.System = "clank" },
		"CacheSize":              func(k *Key) { k.CacheSize = 256 },
		"Ways":                   func(k *Key) { k.Ways = 4 },
		"Schedule":               func(k *Key) { k.Schedule = "periodic(250000)" },
		"ForcedCheckpointPeriod": func(k *Key) { k.ForcedCheckpointPeriod = 125000 },
		"MaxInstructions":        func(k *Key) { k.MaxInstructions = 1 << 20 },
		"MaxCycles":              func(k *Key) { k.MaxCycles = 1 << 21 },
		"FinalFlush":             func(k *Key) { k.FinalFlush = true },
		"Verify":                 func(k *Key) { k.Verify = false },
		"CheckGolden":            func(k *Key) { k.CheckGolden = false },
		"ClockHz":                func(k *Key) { k.ClockHz = 100_000_000 },
		"HitCycles":              func(k *Key) { k.HitCycles = 3 },
		"NVMCycles":              func(k *Key) { k.NVMCycles = 9 },
		"DirtyThreshold":         func(k *Key) { k.DirtyThreshold = 8 },
		"EnergyPrediction":       func(k *Key) { k.EnergyPrediction = true },
	}

	typ := reflect.TypeOf(Key{})
	seen := map[string]string{"": baseDigest}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mutate, ok := perturb[name]
		if !ok {
			t.Fatalf("Key field %s has no perturbation: extend the table (and the canonical serialization)", name)
		}
		k := testKey()
		mutate(&k)
		d := k.Digest()
		if prev, dup := seen[name]; dup {
			t.Fatalf("internal test error: field %s perturbed twice (%s)", name, prev)
		}
		for other, od := range seen {
			if d == od {
				t.Errorf("perturbing %s collides with %q (digest %s)", name, other, d)
			}
		}
		seen[name] = d
		// The perturbed field must round-trip through the canonical form too.
		if !strings.Contains(k.Canonical(), `"`) {
			t.Fatalf("canonical form of %s looks wrong: %s", name, k.Canonical())
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	k := testKey()
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store reported a hit")
	}
	want := testEntry(k)
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.CorruptEvicted != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPutAsyncFlush(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := testKey()
		k.CacheSize = 1 << uint(i%20)
		k.Ways = i
		s.PutAsync(testEntry(k))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Count(); err != nil || n != 50 {
		t.Fatalf("Count = %d, %v; want 50", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: entries survive the process "restart".
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	k := testKey()
	k.CacheSize = 1
	k.Ways = 0
	if _, ok := s2.Get(k); !ok {
		t.Fatal("entry lost across reopen")
	}
	// PutAsync after Close degrades to a synchronous write, never a loss.
	late := testKey()
	late.Program = "late"
	s.PutAsync(testEntry(late))
	if _, ok := s2.Get(late); !ok {
		t.Fatal("PutAsync after Close lost the entry")
	}
}

// findObject returns the single entry file under the store (helper for the
// corruption tests).
func findObject(t *testing.T, s *Store, k Key) string {
	t.Helper()
	path := s.objectPath(k.Digest())
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("object file missing: %v", err)
	}
	return path
}

func TestCorruptionBitFlipDetectedAndEvicted(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey()
	if err := s.Put(testEntry(k)); err != nil {
		t.Fatal(err)
	}
	path := findObject(t, s, k)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every byte position in turn would be slow; flip a few
	// spread across payload and trailer.
	for _, pos := range []int{0, len(raw) / 3, len(raw) / 2, len(raw) - 2} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(path, mut, 0o666); err != nil {
			t.Fatal(err)
		}
		if e, ok := s.Get(k); ok {
			t.Fatalf("bit flip at %d served as a hit: %+v", pos, e)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry (flip at %d) not evicted", pos)
		}
		// Transparent re-execution is modelled by the caller re-putting.
		if err := s.Put(testEntry(k)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CorruptEvicted != 4 {
		t.Fatalf("CorruptEvicted = %d, want 4", st.CorruptEvicted)
	}
}

func TestCorruptionTruncationDetectedAndEvicted(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey()
	if err := s.Put(testEntry(k)); err != nil {
		t.Fatal(err)
	}
	path := findObject(t, s, k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o666); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(k); ok {
			t.Fatalf("truncation to %d bytes served as a hit", n)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("truncated entry (%d bytes) not evicted", n)
		}
		if err := s.Put(testEntry(k)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWrongDigestFileRejected: an entry renamed under a different digest (a
// foreign or tampered file) fails the key/digest cross-check even though its
// checksum is internally consistent.
func TestWrongDigestFileRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey()
	if err := s.Put(testEntry(k)); err != nil {
		t.Fatal(err)
	}
	src := findObject(t, s, k)
	other := testKey()
	other.Program = "sha"
	dst := s.objectPath(other.Digest())
	if err := os.MkdirAll(filepath.Dir(dst), 0o777); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(src)
	if err := os.WriteFile(dst, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(other); ok {
		t.Fatal("entry stored under a foreign digest was served")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 25; i++ {
				k := testKey()
				k.Ways = i
				k.DirtyThreshold = w % 2 // overlap digests across goroutines
				s.PutAsync(testEntry(k))
				s.Get(k)
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Count(); err != nil || n != 50 {
		t.Fatalf("Count = %d, %v; want 50", n, err)
	}
}

func TestCanonicalFormStable(t *testing.T) {
	k := testKey()
	want := fmt.Sprintf(`{"v":%d,"program":"aes","image_hash":"%s","system":"nacho",`+
		`"cache":512,"ways":2,"schedule":"none","forced_period":0,`+
		`"max_instructions":0,"max_cycles":0,"final_flush":false,"verify":true,"check_golden":true,`+
		`"clock_hz":50000000,"hit_cycles":2,"nvm_cycles":6,"dirty_threshold":0,"energy_prediction":false}`,
		KeyVersion, k.ImageHash)
	if got := k.Canonical(); got != want {
		t.Fatalf("canonical form drifted:\n got %s\nwant %s", got, want)
	}
}
