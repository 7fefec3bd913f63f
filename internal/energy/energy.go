// Package energy implements the rough per-run energy model the paper's
// Section 8 sketches ("our evaluation ... can be further extended to these
// additional metrics to construct a rough energy model"). It folds the
// run counters into picojoule estimates using per-event coefficients.
//
// The default coefficients encode the *relative* costs the paper relies on
// — an NVM (FRAM/MRAM) access costs several times an SRAM access, and
// writes cost more than reads (paper Section 1 and the TI FRAM application
// note it cites) — at magnitudes representative of published ~130 nm
// low-power MCU figures. Absolute numbers are indicative only; the model's
// value is comparing systems under identical coefficients.
package energy

import "nacho/internal/metrics"

// Model holds per-event energy coefficients in picojoules.
type Model struct {
	InstructionPJ  float64 // core pipeline energy per retired instruction
	CacheAccessPJ  float64 // one SRAM/data-cache access
	NVMReadPJByte  float64 // per byte read from NVM
	NVMWritePJByte float64 // per byte written to NVM
}

// DefaultModel returns the reference coefficients: SRAM access ~0.5x the
// core's per-instruction energy; NVM reads ~4x and writes ~6x an SRAM
// access per byte — the FRAM-versus-SRAM ratio band of the paper's sources.
func DefaultModel() Model {
	return Model{
		InstructionPJ:  10,
		CacheAccessPJ:  5,
		NVMReadPJByte:  20,
		NVMWritePJByte: 30,
	}
}

// Breakdown is an energy estimate split by subsystem, in picojoules.
type Breakdown struct {
	CorePJ     float64
	CachePJ    float64
	NVMReadPJ  float64
	NVMWritePJ float64
}

// TotalPJ sums the breakdown.
func (b Breakdown) TotalPJ() float64 {
	return b.CorePJ + b.CachePJ + b.NVMReadPJ + b.NVMWritePJ
}

// TotalUJ is the total in microjoules.
func (b Breakdown) TotalUJ() float64 { return b.TotalPJ() / 1e6 }

// Estimate folds one run's counters into the model. Cache accesses are the
// hit+miss probe count (the volatile baseline reports its SRAM accesses as
// hits).
func (m Model) Estimate(c metrics.Counters) Breakdown {
	return Breakdown{
		CorePJ:     m.InstructionPJ * float64(c.Instructions),
		CachePJ:    m.CacheAccessPJ * float64(c.CacheHits+c.CacheMisses),
		NVMReadPJ:  m.NVMReadPJByte * float64(c.NVMReadBytes),
		NVMWritePJ: m.NVMWritePJByte * float64(c.NVMWriteBytes),
	}
}
