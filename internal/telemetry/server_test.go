package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.NewCounterFunc("up_total", "Liveness.", func() uint64 { return 9 })
	status := func() any {
		return map[string]any{"workers": 4, "experiment": "fig8"}
	}
	s, err := NewServer("127.0.0.1:0", r, status)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != PrometheusContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, PrometheusContentType)
	}
	if samples := checkPrometheusText(t, body); samples["up_total"] != 9 {
		t.Errorf("/metrics up_total = %g, want 9\n%s", samples["up_total"], body)
	}

	code, body, _ = get(t, base+"/metrics.json")
	var samples []Sample
	if code != http.StatusOK || json.Unmarshal([]byte(body), &samples) != nil || len(samples) != 1 {
		t.Errorf("/metrics.json bad response (%d): %s", code, body)
	}

	code, body, hdr = get(t, base+"/status")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/status status=%d Content-Type=%q", code, hdr.Get("Content-Type"))
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if doc["experiment"] != "fig8" || doc["workers"] != float64(4) {
		t.Errorf("/status = %v", doc)
	}

	code, body, _ = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index bad response (%d): %s", code, body)
	}
	if code, _, _ = get(t, base+"/nonexistent"); code != http.StatusNotFound {
		t.Errorf("/nonexistent status = %d, want 404", code)
	}
	if code, body, _ = get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
}

func TestServerNilStatus(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, body, _ := get(t, "http://"+s.Addr()+"/status")
	if strings.TrimSpace(body) != "{}" {
		t.Errorf("/status with nil StatusFunc = %q, want {}", body)
	}
}

func TestServerClose(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still serving after Close")
	}
}
