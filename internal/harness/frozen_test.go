package harness_test

import (
	"sync"
	"testing"

	"nacho/internal/harness"
	"nacho/internal/mem"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// TestFrozenImageSharedAcrossRuns runs the paper's seven systems at once on
// one image, each from its own goroutine, so every run forks the image's
// frozen space for its machine and its verifier's shadow concurrently. The
// frozen space must come out as loaded: equal to a fresh load of the
// segments. Under -race this also pins concurrent forking and
// copy-on-write of the pages the runs share.
func TestFrozenImageSharedAcrossRuns(t *testing.T) {
	p, _ := program.ByName("crc")
	img, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := img.FrozenSpace()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []systems.Kind{
		systems.KindVolatile, systems.KindClank, systems.KindPROWL, systems.KindReplayCache,
		systems.KindNaiveNACHO, systems.KindNACHO, systems.KindOracleNACHO,
	}
	errs := make([]error, len(kinds))
	var wg sync.WaitGroup
	for i, kind := range kinds {
		wg.Add(1)
		go func(i int, kind systems.Kind) {
			defer wg.Done()
			_, errs[i] = harness.RunImage(img, kind, harness.DefaultRunConfig(), true)
		}(i, kind)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", kinds[i], err)
		}
	}
	fresh := mem.NewSpace()
	for _, seg := range img.Segments {
		fresh.LoadBytes(seg.Addr, seg.Data)
	}
	if addr, ok := frozen.Equal(fresh); !ok {
		t.Fatalf("a run wrote the frozen space at %#x", addr)
	}
}
