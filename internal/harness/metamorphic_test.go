package harness_test

import (
	"testing"

	"nacho/internal/harness"
	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// dataSections runs an image and returns the final NVM bytes of every
// non-text segment, read back through the system's memory hierarchy after
// the post-halt flush.
func dataSections(t *testing.T, img *program.Image, kind systems.Kind, cfg harness.RunConfig) map[uint32][]byte {
	t.Helper()
	cfg.FinalFlush = true
	res, sys, err := harness.RunImageSys(img, kind, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("%s on %s: exit code %d", img.Program.Name, kind, res.ExitCode)
	}
	out := make(map[uint32][]byte)
	m := sys.Mem()
	for _, seg := range img.Segments {
		if seg.Addr == mem.TextBase {
			continue
		}
		b := make([]byte, len(seg.Data))
		for i := range b {
			b[i] = byte(m.ReadRaw(seg.Addr+uint32(i), 1))
		}
		out[seg.Addr] = b
	}
	return out
}

// TestMetamorphicFinalNVMState is the cross-system metamorphic property:
// intermittent execution must be invisible in memory. For every benchmark
// and every recovery system, the data-section NVM bytes after a run under
// periodic power failures must equal the failure-free Volatile baseline
// byte for byte. (Checkpoint area and stack are excluded — each recovery
// model legitimately leaves different state there.)
func TestMetamorphicFinalNVMState(t *testing.T) {
	kinds := []systems.Kind{
		systems.KindNaiveNACHO, systems.KindNACHO, systems.KindOracleNACHO,
		systems.KindClank, systems.KindPROWL, systems.KindReplayCache,
	}
	progs := program.All()
	if testing.Short() {
		progs = progs[:3]
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			img, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			golden := dataSections(t, img, systems.KindVolatile, harness.DefaultRunConfig())

			for _, kind := range kinds {
				cfg := harness.DefaultRunConfig()
				const onDuration = 50_000 // 1 ms at 50 MHz
				cfg.Schedule = power.Periodic{Period: onDuration}
				cfg.ForcedCheckpointPeriod = onDuration / 2
				got := dataSections(t, img, kind, cfg)

				for addr, want := range golden {
					b := got[addr]
					for i := range want {
						if b[i] != want[i] {
							t.Errorf("%s: NVM byte 0x%08x = %#02x, failure-free baseline %#02x",
								kind, addr+uint32(i), b[i], want[i])
							break
						}
					}
				}
			}
		})
	}
}
