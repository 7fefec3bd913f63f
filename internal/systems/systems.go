package systems

import (
	"fmt"

	"nacho/internal/core"
	"nacho/internal/mem"
	"nacho/internal/sim"
	"nacho/internal/verify"
)

// Kind names a system under evaluation (paper Section 6.1.2).
type Kind string

// The evaluated systems. The nacho-pw / nacho-st kinds are the component
// systems of Table 3: possible-WAR detection alone and stack tracking alone.
const (
	KindVolatile    Kind = "volatile"
	KindClank       Kind = "clank"
	KindPROWL       Kind = "prowl"
	KindReplayCache Kind = "replaycache"
	KindNaiveNACHO  Kind = "naive-nacho"
	KindNACHO       Kind = "nacho"
	KindOracleNACHO Kind = "oracle-nacho"
	KindNACHOPW     Kind = "nacho-pw"
	KindNACHOST     Kind = "nacho-st"
	// KindWriteThrough is this reproduction's Section 8 extension: a
	// write-through data cache over NVM with an exact hardware WAR tracker —
	// the cache model the paper names as a limitation of NACHO's write-back
	// assumption.
	KindWriteThrough Kind = "writethrough"
	// KindNACHOBrokenPW is NACHO with the write-back safety check inverted
	// (core.Options.TestInvertPW). It is a deliberately unsound system used
	// to prove the crash-consistency fuzzer's oracle actually detects WAR
	// bugs; it is intentionally excluded from AllKinds.
	KindNACHOBrokenPW Kind = "nacho-broken-pw"
)

// AllKinds lists every buildable system.
func AllKinds() []Kind {
	return []Kind{
		KindVolatile, KindClank, KindPROWL, KindReplayCache,
		KindNaiveNACHO, KindNACHO, KindOracleNACHO, KindNACHOPW, KindNACHOST,
		KindWriteThrough,
	}
}

// Config is the common build configuration. CacheSize/Ways are ignored by
// the cacheless systems (volatile, clank).
type Config struct {
	CacheSize int
	Ways      int

	// DirtyThreshold enables the Section 8 adaptive checkpointing policy on
	// the NACHO-family systems (0 = off).
	DirtyThreshold int
	// EnergyPrediction runs NACHO-family checkpoints single-buffered under
	// a guaranteed-energy window (Section 8, "Energy Prediction").
	EnergyPrediction bool
}

// Build constructs a system of the given kind over the memory image in
// space. For every kind except KindVolatile the space acts as non-volatile
// main memory.
func Build(kind Kind, space *mem.Space, cfg Config) (sim.System, error) {
	nvm := mem.NewNVM(space)
	nachoOpts := func(war core.WARMode, stack bool) core.Options {
		return core.Options{
			CacheSize:        cfg.CacheSize,
			Ways:             cfg.Ways,
			WARMode:          war,
			StackTracking:    stack,
			DirtyThreshold:   cfg.DirtyThreshold,
			EnergyPrediction: cfg.EnergyPrediction,
		}
	}
	switch kind {
	case KindVolatile:
		return NewVolatile(space), nil
	case KindClank:
		return NewClank(nvm), nil
	case KindPROWL:
		if cfg.Ways != 2 {
			return nil, fmt.Errorf("systems: prowl supports only 2 ways, got %d", cfg.Ways)
		}
		return NewPROWL(nvm, cfg.CacheSize)
	case KindReplayCache:
		return NewReplayCache(nvm, cfg.CacheSize, cfg.Ways)
	case KindNaiveNACHO:
		return core.New(string(kind), nvm, nachoOpts(core.WARNone, false))
	case KindNACHO:
		return core.New(string(kind), nvm, nachoOpts(core.WARCacheBits, true))
	case KindNACHOBrokenPW:
		opts := nachoOpts(core.WARCacheBits, true)
		opts.TestInvertPW = true
		return core.New(string(kind), nvm, opts)
	case KindOracleNACHO:
		return core.New(string(kind), nvm, nachoOpts(core.WARExact, true))
	case KindNACHOPW:
		return core.New(string(kind), nvm, nachoOpts(core.WARCacheBits, false))
	case KindNACHOST:
		return core.New(string(kind), nvm, nachoOpts(core.WARNone, true))
	case KindWriteThrough:
		return NewWriteThrough(nvm, cfg.CacheSize, cfg.Ways)
	}
	return nil, fmt.Errorf("systems: unknown kind %q", kind)
}

// VerifyConfigFor returns the verification semantics matching a system's
// recovery model: checkpoint/rollback systems rewind the shadow and must
// never write back read-dominated data; ReplayCache's JIT/region model
// resumes in place, so only the shadow check applies. The volatile baseline
// has no recovery at all.
func VerifyConfigFor(kind Kind) verify.Config {
	return verify.Config{Rollback: kind != KindReplayCache && kind != KindVolatile}
}
