package fuzzer

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nacho/internal/emu"
	"nacho/internal/mem"
	"nacho/internal/systems"
)

// matrixSeeds returns the seed count for the deterministic property-test
// matrix, trimmed under -short.
func matrixSeeds(t *testing.T) int {
	if testing.Short() {
		return 8
	}
	return 24
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		ia, err := a.Render()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ib, err := b.Render()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(ia.Segments, ib.Segments) {
			t.Fatalf("seed %d: Render is not deterministic", seed)
		}
	}
}

// TestRenderedProgramsWellFormed: every generated program must run to a
// clean exit on the Volatile baseline — that is the precondition the whole
// differential oracle rests on.
func TestRenderedProgramsWellFormed(t *testing.T) {
	for seed := int64(1); seed <= int64(2*matrixSeeds(t)); seed++ {
		_, g, err := prepare(Generate(seed), Config{}.normalized())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.res.ExitCode != 0 {
			t.Errorf("seed %d: exit code %d, want 0", seed, g.res.ExitCode)
		}
	}
}

// TestDifferentialMatrix is the deterministic property-test matrix of the
// issue: N seeds x all systems x (failure-free + randomized schedules).
// Any finding is a real crash-consistency bug in the system under test.
func TestDifferentialMatrix(t *testing.T) {
	kinds := DefaultKinds()
	for seed := int64(1); seed <= int64(matrixSeeds(t)); seed++ {
		fs, err := Check(Generate(seed), kinds, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, f := range fs {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// findBrokenPW scans seeds until the deliberately broken NACHO produces a
// finding; the generator is tuned so this happens within a few seeds.
func findBrokenPW(t *testing.T) Finding {
	t.Helper()
	for seed := int64(1); seed <= 60; seed++ {
		fs, err := Check(Generate(seed), []systems.Kind{systems.KindNACHOBrokenPW}, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(fs) > 0 {
			return fs[0]
		}
	}
	t.Fatal("broken-pw NACHO produced no finding in 60 seeds; the oracle cannot detect a broken WAR protocol")
	panic("unreachable")
}

// TestBrokenPWDetectedMinimizedReplayed is the issue's acceptance
// criterion: a deliberately broken NACHO (inverted pw-bit check) yields a
// finding that minimizes to at most 20 instructions and replays
// deterministically from its artifact.
func TestBrokenPWDetectedMinimizedReplayed(t *testing.T) {
	f := findBrokenPW(t)
	min := Minimize(f, Config{})
	if !min.Minimized {
		t.Fatal("Minimize did not mark the finding as minimized")
	}
	if min.Kind != f.Kind {
		t.Fatalf("minimization changed the finding kind: %s -> %s", f.Kind, min.Kind)
	}
	if min.Instructions == 0 || min.Instructions > 20 {
		t.Fatalf("minimized to %d instructions, want 1..20", min.Instructions)
	}

	dir := t.TempDir()
	a, err := NewArtifact(min, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path, err := a.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if r1 == nil {
		t.Fatal("artifact did not reproduce the finding")
	}
	if r1.Kind != min.Kind || r1.System != min.System {
		t.Fatalf("replay reproduced %s on %s, want %s on %s", r1.Kind, r1.System, min.Kind, min.System)
	}
	r2, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if r2 == nil || r1.String() != r2.String() {
		t.Fatalf("replay is not deterministic:\n  %v\n  %v", r1, r2)
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	f := findBrokenPW(t)
	a := Minimize(f, Config{})
	b := Minimize(f, Config{})
	if a.String() != b.String() {
		t.Fatalf("Minimize is not deterministic:\n  %s\n  %s", a, b)
	}
	if !reflect.DeepEqual(a.Prog.Ops, b.Prog.Ops) {
		t.Fatal("Minimize produced different op trees for the same finding")
	}
}

// TestHealthyNACHOSurvivesMinimalWARIdiom pins the canonical WAR eviction
// pattern directly: read-modify-write a line, then evict it through two
// same-set fills. Correct NACHO must checkpoint the unsafe eviction; the
// broken variant must write it straight back and trip the exact tracker.
func TestHealthyNACHOSurvivesMinimalWARIdiom(t *testing.T) {
	prog := &Prog{
		Seed:   1,
		Params: Params{Ops: 4, BufWords: 140, MaxLoop: 1, MaxDepth: 0},
		Ops: []Op{
			{Kind: OpRMW, R: 0, V: 0},
			{Kind: OpLoad, R: 1, S: 2, V: 256},
			{Kind: OpLoad, R: 2, S: 2, V: 512},
		},
	}
	fs, err := Check(prog, []systems.Kind{systems.KindNACHO, systems.KindNACHOBrokenPW}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var healthy, broken []Finding
	for _, f := range fs {
		if f.System == systems.KindNACHO {
			healthy = append(healthy, f)
		} else {
			broken = append(broken, f)
		}
	}
	if len(healthy) != 0 {
		t.Errorf("correct NACHO diverged on the minimal WAR idiom: %v", healthy[0])
	}
	if len(broken) == 0 {
		t.Error("broken-pw NACHO survived the minimal WAR idiom")
	} else if broken[0].Kind != FindingWAR {
		t.Errorf("broken-pw finding kind = %s, want %s", broken[0].Kind, FindingWAR)
	}
}

func TestCheckRawScheduleHealthy(t *testing.T) {
	raws := [][]byte{
		{0x10, 0x00},
		{0x01, 0x00, 0x02, 0x00, 0x03, 0x00},
		{0xff, 0xff, 0x7f},
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, raw := range raws {
			f, err := CheckRawSchedule(Generate(seed), systems.KindNACHO, Config{}, raw)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if f != nil {
				t.Errorf("seed %d raw %x: %s", seed, raw, f)
			}
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{
		Seeds:    8,
		SeedBase: 100,
		Kinds:    []systems.Kind{systems.KindNACHO, systems.KindClank},
	}
	a := RunCampaign(cfg)
	b := RunCampaign(cfg)
	if a.String() != b.String() {
		t.Fatalf("campaign reports differ:\n%s\n---\n%s", a, b)
	}
	if a.Programs != cfg.Seeds {
		t.Errorf("campaign checked %d programs, want %d", a.Programs, cfg.Seeds)
	}
}

// TestCampaignWritesArtifacts: a campaign over the broken system must
// produce findings, minimize them, and leave replayable artifacts behind.
func TestCampaignWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	rep := RunCampaign(CampaignConfig{
		Seeds:    10,
		SeedBase: 1,
		Kinds:    []systems.Kind{systems.KindNACHOBrokenPW},
		Minimize: true,
		OutDir:   dir,
	})
	if len(rep.Findings) == 0 {
		t.Fatal("no findings from the broken system in 10 seeds")
	}
	if len(rep.Artifact) != len(rep.Findings) {
		t.Fatalf("%d artifacts for %d findings", len(rep.Artifact), len(rep.Findings))
	}
	for _, p := range rep.Artifact {
		a, err := LoadArtifact(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		f, err := a.Replay()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if f == nil {
			t.Errorf("%s did not reproduce", filepath.Base(p))
		}
	}
}

func TestArtifactTextAuthoritative(t *testing.T) {
	f := findBrokenPW(t)
	a, err := NewArtifact(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	img1, err := f.Prog.Render()
	if err != nil {
		t.Fatal(err)
	}
	img2, err := a.Image()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img1.Text, img2.Text) {
		t.Fatal("artifact image text differs from the rendered program")
	}
	if !reflect.DeepEqual(img1.Segments, img2.Segments) {
		t.Fatal("artifact image segments differ from the rendered program")
	}
}

func TestLoadArtifactRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(bad); err == nil {
		t.Error("LoadArtifact accepted malformed JSON")
	}
	if _, err := LoadArtifact(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadArtifact accepted a missing file")
	}
	vers := filepath.Join(dir, "vers.json")
	if err := os.WriteFile(vers, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(vers); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("LoadArtifact on wrong version: %v", err)
	}
}

// TestDiffAgainstGoldenNVMDetail pins the final-NVM comparison: it reports
// the first differing byte, with the same detail string, wherever that byte
// falls in a segment, including in a page the run never wrote.
func TestDiffAgainstGoldenNVMDetail(t *testing.T) {
	golden := make([]byte, 3000)
	for i := range golden {
		golden[i] = byte(i*7 + 1)
	}
	g := &goldenRun{data: []segBytes{{addr: 0x2_0000, bytes: golden}}}
	for _, c := range []struct {
		name string
		off  int // first byte the run got wrong; -1 for none
		want string
	}{
		{"match", -1, ""},
		{"first byte", 0, "NVM byte 0x00020000 = 0xfe, golden 0x01"},
		{"later page", 2100, "NVM byte 0x00020834 = 0x92, golden 0x6d"},
	} {
		s := mem.NewSpace()
		s.LoadBytes(0x2_0000, golden)
		if c.off >= 0 { // this byte and the next differ
			for _, o := range []int{c.off, c.off + 1} {
				s.Write(0x2_0000+uint32(o), 1, uint32(golden[o]^0xFF))
			}
		}
		fc := diffAgainstGolden(emu.Result{}, nil, s, g, 0)
		switch {
		case c.want == "" && fc != nil:
			t.Errorf("%s: unexpected finding %q", c.name, fc.detail)
		case c.want != "" && (fc == nil || fc.kind != FindingNVM || fc.detail != c.want):
			t.Errorf("%s: finding %+v, want %s %q", c.name, fc, FindingNVM, c.want)
		}
	}
	// A segment over memory nothing wrote reads as zeros.
	empty := &goldenRun{data: []segBytes{{addr: 0x5_0000, bytes: []byte{0, 0, 9}}}}
	if fc := diffAgainstGolden(emu.Result{}, nil, mem.NewSpace(), empty, 0); fc == nil || fc.detail != "NVM byte 0x00050002 = 0x00, golden 0x09" {
		t.Errorf("unwritten memory: finding %+v", fc)
	}
}
