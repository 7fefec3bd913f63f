package nacho_test

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"nacho"
	"nacho/internal/harness"
)

// promLineRe matches one sample line of the Prometheus text exposition.
var promLineRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-Inf|NaN|-?[0-9.eE+-]+)$`)

// scrape fetches url and parses the body as text exposition, failing the test
// on any unparseable line.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLineRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable exposition line: %q", line)
			continue
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

// TestServeTelemetryEndToEnd is the acceptance test for the live telemetry
// server: scrapable mid-sweep, every /metrics line valid text exposition,
// /status showing live worker-pool progress, and the nacho_sim_* series
// summing the counters of exactly the runs the process executed, with no
// telemetry option on any run.
func TestServeTelemetryEndToEnd(t *testing.T) {
	ts, err := nacho.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	base := "http://" + ts.Addr()

	// A benchmark and a caller-supplied program: each executes, so each adds
	// its counters.
	before := scrape(t, base+"/metrics")
	run, err := nacho.Run(nacho.Config{Benchmark: "crc", OnDurationMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := nacho.RunSource("answer", `
_start:
	li   t0, 42
	li   t1, 0x000F0004
	sw   t0, (t1)
	li   t1, 0x000F0000
	sw   zero, (t1)
`, nacho.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mid := scrape(t, base+"/metrics")
	for _, c := range []struct {
		series string
		want   uint64
	}{
		{"nacho_sim_instructions_total", run.Instructions + src.Instructions},
		{"nacho_sim_power_failures_total", run.PowerFailures + src.PowerFailures},
		{"nacho_harness_simulated_cycles_total", run.Cycles + src.Cycles},
	} {
		if got := mid[c.series] - before[c.series]; got != float64(c.want) {
			t.Errorf("%s grew by %g over nacho.Run and nacho.RunSource, want %d", c.series, got, c.want)
		}
	}
	if run.PowerFailures == 0 {
		t.Error("the 1 ms on-duration run saw no power failure")
	}

	// An experiment sweep in the background, from an empty run cache so it
	// executes, with a ledger recording every run; scrape concurrently until
	// it finishes, validating every line of every mid-sweep exposition.
	dir := t.TempDir()
	campaign, err := nacho.StartCampaign(nacho.CampaignConfig{LedgerPath: filepath.Join(dir, "runs.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	harness.ResetRunCache()
	done := make(chan error, 1)
	go func() {
		_, err := nacho.RunExperiment("fig5", []string{"crc", "sha"})
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				campaign.Close()
				t.Fatal(err)
			}
			running = false
		case <-time.After(2 * time.Millisecond):
			scrape(t, base+"/metrics")
		}
	}
	if err := campaign.Close(); err != nil {
		t.Fatal(err)
	}

	// The eight series with a ledger column grew by exactly the executed
	// records' sums; cache hits add nothing.
	samples := scrape(t, base+"/metrics")
	sums := map[string]uint64{}
	executed := 0
	for _, r := range readLedgerFile(t, filepath.Join(dir, "runs.jsonl")) {
		if r.Outcome != "ok" && r.Outcome != "error" {
			continue
		}
		executed++
		sums["nacho_harness_simulated_cycles_total"] += r.Cycles
		sums["nacho_sim_instructions_total"] += r.Instructions
		sums["nacho_sim_checkpoints_total"] += r.Checkpoints
		sums["nacho_sim_nvm_read_bytes_total"] += r.NVMReadBytes
		sums["nacho_sim_nvm_write_bytes_total"] += r.NVMWriteBytes
		sums[`nacho_sim_accesses_total{class="hit"}`] += r.CacheHits
		sums[`nacho_sim_accesses_total{class="miss"}`] += r.CacheMisses
		sums["nacho_sim_power_failures_total"] += r.PowerFailures
	}
	if executed == 0 {
		t.Fatal("the fig5 sweep's ledger has no executed record")
	}
	for series, want := range sums {
		if got := samples[series] - mid[series]; got != float64(want) {
			t.Errorf("%s grew by %g over the fig5 sweep, want %d (the ledger's %d executed records)", series, got, want, executed)
		}
	}
	if got := samples["nacho_harness_runs_completed_total"] - mid["nacho_harness_runs_completed_total"]; got != float64(executed) {
		t.Errorf("runs_completed grew by %g over the fig5 sweep, want %d", got, executed)
	}

	// /status: the live pool document.
	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Workers       int    `json:"workers"`
		RunsStarted   uint64 `json:"runs_started"`
		RunsCompleted uint64 `json:"runs_completed"`
		ActiveJobs    []any  `json:"active_jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatalf("/status decode: %v", err)
	}
	if status.Workers < 1 || status.RunsCompleted < 1 {
		t.Errorf("/status = %+v, want workers and completed runs", status)
	}
	if status.ActiveJobs == nil {
		t.Error("/status active_jobs missing (want [] when idle)")
	}

	// /metrics.json: a decodable snapshot naming the same series.
	resp2, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var metricsJSON []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&metricsJSON); err != nil {
		t.Fatalf("/metrics.json decode: %v", err)
	}
	names := map[string]bool{}
	for _, s := range metricsJSON {
		names[s.Name] = true
	}
	if !names["nacho_harness_runs_completed_total"] || !names["nacho_sim_instructions_total"] {
		t.Errorf("/metrics.json missing expected series (have %d)", len(metricsJSON))
	}
}

// TestDashboardEndToEnd is the acceptance test for the live dashboard: after
// real harness work, /dashboard must serve a self-contained page whose
// bootstrap JSON island carries the live pool status, run counters, and the
// per-engine wall-time histogram — real first-paint data, no JS engine needed.
func TestDashboardEndToEnd(t *testing.T) {
	ts, err := nacho.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	harness.ResetRunCache()
	if _, err := nacho.RunExperiment("fig6", []string{"crc"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ts.Addr() + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /dashboard = %d, want 200", resp.StatusCode)
	}
	page := string(body)
	for _, want := range []string{"nacho campaign dashboard", "Workers", "Run wall time"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard page missing %q", want)
		}
	}

	const openTag = `<script id="bootstrap" type="application/json">`
	i := strings.Index(page, openTag)
	if i < 0 {
		t.Fatal("dashboard has no bootstrap JSON island")
	}
	rest := page[i+len(openTag):]
	j := strings.Index(rest, "</script>")
	if j < 0 {
		t.Fatal("bootstrap island not terminated")
	}
	raw := strings.ReplaceAll(rest[:j], `<\/`, `</`)
	var boot struct {
		Metrics []struct {
			Name      string  `json:"name"`
			Value     float64 `json:"value"`
			Histogram *struct {
				Count   uint64 `json:"count"`
				Buckets []struct {
					Le    string `json:"le"`
					Count uint64 `json:"count"`
				} `json:"buckets"`
			} `json:"histogram"`
		} `json:"metrics"`
		Status struct {
			Workers       int    `json:"workers"`
			RunsCompleted uint64 `json:"runs_completed"`
		} `json:"status"`
	}
	if err := json.Unmarshal([]byte(raw), &boot); err != nil {
		t.Fatalf("bootstrap island is not valid JSON: %v", err)
	}
	if boot.Status.Workers < 1 || boot.Status.RunsCompleted < 1 {
		t.Errorf("bootstrap status = %+v, want live workers and completed runs", boot.Status)
	}
	var runsTotal float64
	var wallCount uint64
	names := map[string]bool{}
	for _, s := range boot.Metrics {
		names[s.Name] = true
		switch s.Name {
		case "nacho_harness_runs_completed_total":
			runsTotal = s.Value
		case "nacho_harness_run_wall_micros":
			if s.Histogram != nil {
				wallCount += s.Histogram.Count
				if len(s.Histogram.Buckets) == 0 {
					t.Error("run wall-time histogram has no buckets")
				}
			}
		}
	}
	if runsTotal < 1 {
		t.Errorf("bootstrap nacho_harness_runs_completed_total = %g, want >= 1", runsTotal)
	}
	if wallCount < 1 {
		t.Errorf("bootstrap run wall-time histogram count = %d, want >= 1", wallCount)
	}
	if !names["nacho_snapshot_windows_total"] {
		t.Error("bootstrap metrics missing the snapshot explorer series")
	}
}

// TestPerfettoExport is the acceptance test for Config.Perfetto: a Table 3
// benchmark under power failures must yield Perfetto-loadable trace-event
// JSON with named tracks, checkpoint-interval duration slices, and write-back
// instants.
func TestPerfettoExport(t *testing.T) {
	var buf strings.Builder
	res, err := nacho.Run(nacho.Config{Benchmark: "crc", OnDurationMs: 1, Perfetto: &buf})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	var slices, instants, meta int
	names := map[string]bool{}
	var maxEnd float64
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
		switch e.Ph {
		case "X":
			slices++
			if end := e.Ts + e.Dur; end > maxEnd {
				maxEnd = end
			}
		case "i":
			instants++
		case "M":
			meta++
			// Track names live in the metadata event's args.
			if n, ok := e.Args["name"].(string); ok {
				names[n] = true
			}
		}
	}
	if slices == 0 || meta == 0 {
		t.Fatalf("trace has %d slices, %d metadata events; want both > 0", slices, meta)
	}
	for _, want := range []string{"checkpoint intervals", "power", "write-backs", "commit", "power-failure", "end-of-run"} {
		if !names[want] {
			t.Errorf("trace missing event/track name %q", want)
		}
	}
	// The timeline must span the whole run (ts in microseconds at 50 MHz).
	if wantEnd := float64(res.Cycles) / 50.0; maxEnd < wantEnd {
		t.Errorf("trace ends at %g us, run ended at %g us", maxEnd, wantEnd)
	}
	if res.PowerFailures > 0 && instants == 0 {
		t.Errorf("no write-back instants in an intermittent run")
	}
}
