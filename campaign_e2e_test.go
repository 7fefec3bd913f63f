package nacho_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nacho"
	"nacho/internal/fuzzer"
	"nacho/internal/harness"
	"nacho/internal/systems"
)

// ledgerRecord decodes one line of the campaign run ledger the way an
// external consumer would — by the documented JSON field names, not by
// importing the internal type.
type ledgerRecord struct {
	V             int    `json:"v"`
	Key           string `json:"key"`
	Program       string `json:"program"`
	System        string `json:"system"`
	Engine        string `json:"engine"`
	Cache         int    `json:"cache"`
	Ways          int    `json:"ways"`
	Schedule      string `json:"schedule"`
	Outcome       string `json:"outcome"`
	Error         string `json:"error"`
	Bypass        bool   `json:"bypass"`
	Cycles        uint64 `json:"cycles"`
	Instructions  uint64 `json:"instructions"`
	Checkpoints   uint64 `json:"checkpoints"`
	NVMReadBytes  uint64 `json:"nvm_read_bytes"`
	NVMWriteBytes uint64 `json:"nvm_write_bytes"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	PowerFailures uint64 `json:"power_failures"`
	WallMicros    uint64 `json:"wall_micros"`
}

func readLedgerFile(t *testing.T, path string) []ledgerRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []ledgerRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r ledgerRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("ledger line %d: %v", len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// traceSpan is one duration event of the campaign Perfetto export, with the
// span hierarchy recovered from args.
type traceSpan struct {
	Kind   string
	Name   string
	ID     uint64
	Parent uint64
	Err    bool
}

func readTraceFile(t *testing.T, path string) map[uint64]traceSpan {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
			Name string `json:"name"`
			Args struct {
				ID     uint64 `json:"id"`
				Parent uint64 `json:"parent"`
				Error  bool   `json:"error"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("campaign trace is not valid JSON: %v", err)
	}
	spans := map[uint64]traceSpan{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if _, dup := spans[e.Args.ID]; dup {
			t.Errorf("duplicate span id %d in trace", e.Args.ID)
		}
		spans[e.Args.ID] = traceSpan{
			Kind: e.Cat, Name: e.Name,
			ID: e.Args.ID, Parent: e.Args.Parent, Err: e.Args.Error,
		}
	}
	return spans
}

// checkCampaignTree asserts the exported span set forms one well-nested
// campaign → cell → {run, window} hierarchy and returns the per-kind counts.
func checkCampaignTree(t *testing.T, spans map[uint64]traceSpan) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Kind]++
		switch s.Kind {
		case "campaign":
			if s.Parent != 0 {
				t.Errorf("campaign span %d has parent %d, want 0", s.ID, s.Parent)
			}
		case "cell":
			if p, ok := spans[s.Parent]; !ok || p.Kind != "campaign" {
				t.Errorf("cell span %d parent %d is not the campaign root", s.ID, s.Parent)
			}
		case "run", "window":
			if p, ok := spans[s.Parent]; !ok || p.Kind != "cell" {
				t.Errorf("%s span %d parent %d is not a cell", s.Kind, s.ID, s.Parent)
			}
		default:
			t.Errorf("span %d has unknown kind %q", s.ID, s.Kind)
		}
	}
	if counts["campaign"] != 1 {
		t.Errorf("trace has %d campaign roots, want exactly 1", counts["campaign"])
	}
	return counts
}

// TestCampaignEndToEnd is the acceptance test for campaign observability: an
// experiment regeneration under StartCampaign must produce (a) a Perfetto
// trace whose nested campaign/cell/run spans cover every executed run, (b) a
// ledger with one record per run request whose counters reproduce the
// report's cells, and (c) a report byte-identical to the same regeneration
// with observability off.
func TestCampaignEndToEnd(t *testing.T) {
	// Baseline: the same experiment with no campaign installed.
	baseline, err := nacho.RunExperiment("fig5", []string{"crc"})
	if err != nil {
		t.Fatal(err)
	}
	// The observed regeneration must execute its runs, not read the
	// baseline's from the run cache.
	harness.ResetRunCache()

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "campaign.json")
	ledgerPath := filepath.Join(dir, "runs.jsonl")
	c, err := nacho.StartCampaign(nacho.CampaignConfig{
		Name: "e2e", TracePath: tracePath, LedgerPath: ledgerPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := nacho.RunExperiment("fig5", []string{"crc"})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	runs, dropped := c.Runs(), c.DroppedSpans()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// (c) Observability must not perturb the science: byte-identical reports.
	if observed.Text != baseline.Text {
		t.Errorf("report text differs under campaign observability:\nwith:\n%s\nwithout:\n%s",
			observed.Text, baseline.Text)
	}
	if observed.CSV != baseline.CSV {
		t.Error("report CSV differs under campaign observability")
	}
	if dropped != 0 {
		t.Errorf("tracer dropped %d spans in a small campaign", dropped)
	}

	// (b) The ledger: one record per run request, executed runs and cache
	// hits both, every record well-formed.
	recs := readLedgerFile(t, ledgerPath)
	if uint64(len(recs)) != runs {
		t.Fatalf("ledger has %d records, Campaign.Runs reported %d", len(recs), runs)
	}
	hexKey := regexp.MustCompile(`^[0-9a-f]{64}$`)
	executed := map[string]ledgerRecord{} // identity digest -> the executed record
	for i, r := range recs {
		if r.V != 2 || r.Program != "crc" || r.System == "" || r.Engine == "" {
			t.Fatalf("ledger record %d malformed: %+v", i, r)
		}
		if !hexKey.MatchString(r.Key) {
			t.Errorf("ledger record %d key %q is not 64 hex digits", i, r.Key)
		}
		if r.Cycles == 0 || r.Instructions == 0 {
			t.Errorf("ledger record %d has zero counters: %+v", i, r)
		}
		switch r.Outcome {
		case "ok":
			if prev, dup := executed[r.Key]; dup {
				t.Errorf("identity %s executed twice: %+v vs %+v", r.Key, prev, r)
			}
			executed[r.Key] = r
		case "cache-hit":
			// Deduplicated by the run cache; counters must be the cached
			// result's, verified against the executed record below.
		default:
			t.Errorf("ledger record %d outcome %q: %+v", i, r.Outcome, r)
		}
	}
	for i, r := range recs {
		if r.Outcome != "cache-hit" {
			continue
		}
		ex, ok := executed[r.Key]
		if !ok {
			t.Errorf("cache-hit record %d has no executed record for %s", i, r.Key)
			continue
		}
		if r.Cycles != ex.Cycles || r.Instructions != ex.Instructions || r.Checkpoints != ex.Checkpoints {
			t.Errorf("cache-hit record %d counters differ from executed run %s", i, r.Key)
		}
	}
	// cell finds the executed run of one fig5 cell by its readable columns.
	cell := func(system string, size int) (ledgerRecord, bool) {
		for _, r := range executed {
			if r.System == system && r.Cache == size && r.Ways == 2 && r.Schedule == "none" {
				return r, true
			}
		}
		return ledgerRecord{}, false
	}

	// The ledger's counters must reproduce the report: every fig5 cell is
	// cycles(system, size) / cycles(volatile) formatted to three decimals.
	base, ok := cell("volatile", 512)
	if !ok {
		t.Fatal("ledger has no volatile baseline record")
	}
	cols := []string{"clank", "prowl", "replaycache", "nacho", "oracle-nacho"}
	cells := 0
	for _, line := range strings.Split(observed.Text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2+len(cols) || f[0] != "crc" {
			continue
		}
		var size int
		if _, err := fmt.Sscanf(f[1], "%dB", &size); err != nil {
			continue
		}
		for i, sys := range cols {
			r, ok := cell(sys, size)
			if !ok {
				t.Errorf("ledger has no record for %s at %dB", sys, size)
				continue
			}
			want := fmt.Sprintf("%.3f", float64(r.Cycles)/float64(base.Cycles))
			if f[2+i] != want {
				t.Errorf("report cell %s@%dB = %s, ledger reproduces %s", sys, size, f[2+i], want)
			}
			cells++
		}
	}
	if cells != 2*len(cols) {
		t.Errorf("matched %d report cells against the ledger, want %d", cells, 2*len(cols))
	}

	// (a) The trace: a single campaign root, the experiment as a cell, and a
	// run span for every executed (non-cache-hit) run.
	spans := readTraceFile(t, tracePath)
	counts := checkCampaignTree(t, spans)
	if counts["cell"] != 1 {
		t.Errorf("trace has %d cell spans, want 1 (one experiment)", counts["cell"])
	}
	if counts["run"] != len(executed) {
		t.Errorf("trace has %d run spans, ledger has %d executed runs", counts["run"], len(executed))
	}
	for _, s := range spans {
		if s.Kind == "cell" && !strings.Contains(s.Name, "Figure 5") {
			t.Errorf("cell span named %q, want the experiment title", s.Name)
		}
		if s.Err {
			t.Errorf("span %d (%s %q) marked failed in an all-green campaign", s.ID, s.Kind, s.Name)
		}
	}
}

// TestCampaignExhaustiveWindows drives a second campaign through the
// exhaustive fuzzer so the trace exercises the full hierarchy: seed cells
// fanning out into oracle runs and snapshot-explorer window spans. Run under
// -race this doubles as the span-emit data race check against the parallel
// harness and fork workers.
func TestCampaignExhaustiveWindows(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fuzz.json")
	ledgerPath := filepath.Join(dir, "fuzz.jsonl")
	c, err := nacho.StartCampaign(nacho.CampaignConfig{
		Name: "fuzz-e2e", TracePath: tracePath, LedgerPath: ledgerPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := fuzzer.RunCampaign(fuzzer.CampaignConfig{
		Seeds:      2,
		SeedBase:   1,
		Kinds:      []systems.Kind{systems.KindNACHO},
		Oracle:     fuzzer.Config{CacheSize: 512, Ways: 2, Schedules: 1},
		Exhaustive: true,
		Intervals:  1,
		Stride:     4,
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) > 0 {
		t.Fatalf("exhaustive campaign errors: %v", rep.Errors)
	}
	if len(rep.Findings) > 0 {
		t.Fatalf("exhaustive campaign found unexpected divergences: %v", rep.Findings)
	}

	spans := readTraceFile(t, tracePath)
	counts := checkCampaignTree(t, spans)
	if counts["cell"] != 2 {
		t.Errorf("trace has %d cell spans, want 2 (one per seed)", counts["cell"])
	}
	if counts["window"] == 0 {
		t.Error("trace has no window spans from the snapshot explorer")
	}
	if counts["run"] == 0 {
		t.Error("trace has no run spans from the oracle")
	}
	if recs := readLedgerFile(t, ledgerPath); len(recs) == 0 {
		t.Error("fuzz campaign appended no ledger records")
	}
}
