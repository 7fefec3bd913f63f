package nacho

import (
	"nacho/internal/fuzzer"
	"nacho/internal/harness"
	"nacho/internal/snapshot"
	"nacho/internal/telemetry"
)

// TelemetryServer is a live observability endpoint for this process's
// simulations. It serves:
//
//	/metrics        Prometheus text exposition (harness + simulation series)
//	/metrics.json   the same registry as a JSON snapshot
//	/status         live worker-pool and experiment progress
//	/dashboard      live HTML dashboard (worker occupancy, rates, histograms)
//	/debug/pprof/   the standard Go profiler
//
// The harness series (nacho_harness_*: runs started/completed, cache hits,
// busy workers, simulated cycles and throughput) track every run in the
// process, including experiment sweeps. The simulation series (nacho_sim_*:
// accesses, write-backs by verdict, checkpoints, power failures, NVM
// traffic) sum the counters of every run the process executed; a run served
// from the run cache or the store adds nothing. Fuzzing campaigns add
// nacho_fuzz_*, and the snapshot explorer nacho_snapshot_*.
type TelemetryServer struct {
	srv *telemetry.Server
}

// ServeTelemetry starts a telemetry server on addr ("127.0.0.1:0" picks a
// free port; read it back with Addr). Close it when the run or sweep is done.
func ServeTelemetry(addr string) (*TelemetryServer, error) {
	reg := telemetry.NewRegistry()
	harness.RegisterMetrics(reg)
	fuzzer.RegisterMetrics(reg)
	snapshot.RegisterMetrics(reg)
	if s := harness.ActiveStore(); s != nil {
		s.RegisterMetrics(reg) // nacho_store_*: open the RunStore before serving
	}
	srv, err := telemetry.NewServer(addr, reg, func() any { return harness.Status() })
	if err != nil {
		return nil, err
	}
	return &TelemetryServer{srv: srv}, nil
}

// Addr returns the server's bound listen address.
func (t *TelemetryServer) Addr() string { return t.srv.Addr() }

// Close gracefully shuts the server down.
func (t *TelemetryServer) Close() error { return t.srv.Close() }
