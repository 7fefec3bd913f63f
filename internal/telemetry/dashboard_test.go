package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// /dashboard must serve a self-contained page whose bootstrap JSON island
// carries the live registry and status values, so the first paint is real data
// (and so e2e tests can assert rendering without a JS engine).
func TestDashboardHandler(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounterFunc("nacho_test_runs_total", "runs", func() uint64 { return 42 })
	h := NewHistogram([]uint64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	reg.RegisterHistogram("nacho_test_wall_micros", "wall", h, Label{"engine", "ref"})

	status := func() any {
		return map[string]any{"workers": 4, "busy": 2, "runs_completed": 42}
	}
	srv, err := NewServer("127.0.0.1:0", reg, status)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/dashboard")
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
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q, want text/html", ct)
	}
	page := string(body)

	// Extract and parse the bootstrap island.
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
		Metrics []Sample       `json:"metrics"`
		Status  map[string]any `json:"status"`
	}
	if err := json.Unmarshal([]byte(raw), &boot); err != nil {
		t.Fatalf("bootstrap island is not valid JSON: %v\n%s", err, raw)
	}
	if got := boot.Status["runs_completed"]; got != float64(42) {
		t.Errorf("bootstrap status runs_completed = %v, want 42", got)
	}
	found := make(map[string]bool)
	for _, s := range boot.Metrics {
		found[s.Name] = true
		if s.Name == "nacho_test_wall_micros" {
			if s.Histogram == nil || s.Histogram.Count != 2 {
				t.Errorf("bootstrap histogram sample malformed: %+v", s)
			}
		}
	}
	for _, want := range []string{"nacho_test_runs_total", "nacho_test_wall_micros"} {
		if !found[want] {
			t.Errorf("bootstrap metrics missing %s", want)
		}
	}

	// The index page must link to the dashboard.
	resp, err = http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(idx), `href="/dashboard"`) {
		t.Error("index page does not link /dashboard")
	}
}

func TestHistogramQuantileMax(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile(0.5) = %v, want 0", got)
	}
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v) // uniform 1..100: 10 in (0,10], 90 in (10,100]
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("Max = %d, want 100", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("Quantile(1) = %v, want 100 (exact max)", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 60 {
		t.Errorf("Quantile(0.5) = %v, want ~50", p50)
	}
	p95 := h.Quantile(0.95)
	if p95 < 85 || p95 > 100 {
		t.Errorf("Quantile(0.95) = %v, want ~95", p95)
	}
	// An observation past every bound lands in +Inf and clamps to max.
	h.Observe(5000)
	if got := h.Quantile(1); got != 5000 {
		t.Errorf("Quantile(1) after outlier = %v, want 5000", got)
	}
}

// TestHistogramQuantileClampedToMax: interpolation inside a finite bucket
// assumes observations spread up to the bucket's bound, which overshoots the
// tracked max when they do not. A quantile can never exceed the largest
// observation.
func TestHistogramQuantileClampedToMax(t *testing.T) {
	cases := []struct {
		name   string
		bounds []uint64
		obs    []uint64
		q      float64
		want   float64
	}{
		// Interpolating to the middle of (100,1000] gave 550.
		{"one observation far below a wide bucket's bound, p50", []uint64{100, 1000, 10000}, []uint64{150}, 0.5, 150},
		{"one observation far below a wide bucket's bound, p95", []uint64{100, 1000, 10000}, []uint64{150}, 0.95, 150},
		// The harness's 1-3-10 run wall-time ladder: p95 landed at
		// 93000 µs, above the 60362 µs max.
		{"run wall ladder", []uint64{1000, 3000, 10000, 30000, 100000, 300000}, []uint64{19167, 60362}, 0.95, 60362},
		// Below the max, interpolation is unchanged.
		{"interpolation below max", []uint64{10, 100}, []uint64{5, 50}, 0.5, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHistogram(c.bounds)
			for _, v := range c.obs {
				h.Observe(v)
			}
			if got := h.Quantile(c.q); got != c.want {
				t.Errorf("Quantile(%v) over %v = %v, want %v", c.q, c.obs, got, c.want)
			}
		})
	}
}
