// Package metrics defines the performance counters collected during
// simulation. They correspond to the paper's evaluation metrics
// (Section 6.1.3): execution time (cycles), number of checkpoints, number of
// NVM transfers, and the inputs needed to compute intermittent re-execution
// overhead.
package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"unicode"
)

// Counters accumulates every observable event of one simulation run.
// The zero value is ready to use.
type Counters struct {
	// Execution.
	Cycles       uint64 // total active cycles (the paper's execution-time metric)
	Instructions uint64 // instructions retired, including re-executed ones
	Loads        uint64 // data loads retired
	Stores       uint64 // data stores retired

	// Checkpoints.
	Checkpoints        uint64 // committed checkpoints
	CheckpointLines    uint64 // dirty cache lines persisted by checkpoints
	MaxCheckpointLines uint64 // largest single checkpoint (capacitor sizing)
	ForcedCkpts        uint64 // periodic forward-progress checkpoints (intermittent runs)
	AdaptiveCkpts      uint64 // dirty-threshold checkpoints (Section 8 adaptive policy)

	// NVM traffic (the paper's "number of NVM transfers" is bytes).
	NVMReads      uint64 // word-granular read accesses
	NVMWrites     uint64 // word-granular write accesses
	NVMReadBytes  uint64
	NVMWriteBytes uint64

	// Cache behaviour.
	CacheHits         uint64
	CacheMisses       uint64
	Evictions         uint64 // dirty lines written back outside checkpoints
	SafeEvictions     uint64 // write-dominated write-backs (no checkpoint needed)
	UnsafeEvictions   uint64 // read-dominated write-backs (checkpoint triggered)
	DroppedStackLines uint64 // dirty lines discarded by stack tracking

	// ReplayCache idempotent regions (region boundaries committed).
	Regions uint64

	// Checkpoint-interval histogram: cycles between consecutive commits,
	// bucketed <1k / <10k / <100k / >=100k — the "checkpointing frequency"
	// statistic of paper Section 8.
	IntervalHist [4]uint64

	// Intermittency.
	PowerFailures uint64
	RestoreCycles uint64 // cycles spent restoring checkpoints after reboots
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Cycles += other.Cycles
	c.Instructions += other.Instructions
	c.Loads += other.Loads
	c.Stores += other.Stores
	c.Checkpoints += other.Checkpoints
	c.CheckpointLines += other.CheckpointLines
	if other.MaxCheckpointLines > c.MaxCheckpointLines {
		c.MaxCheckpointLines = other.MaxCheckpointLines
	}
	c.ForcedCkpts += other.ForcedCkpts
	c.AdaptiveCkpts += other.AdaptiveCkpts
	c.NVMReads += other.NVMReads
	c.NVMWrites += other.NVMWrites
	c.NVMReadBytes += other.NVMReadBytes
	c.NVMWriteBytes += other.NVMWriteBytes
	c.CacheHits += other.CacheHits
	c.CacheMisses += other.CacheMisses
	c.Evictions += other.Evictions
	c.SafeEvictions += other.SafeEvictions
	c.UnsafeEvictions += other.UnsafeEvictions
	c.DroppedStackLines += other.DroppedStackLines
	for i := range c.IntervalHist {
		c.IntervalHist[i] += other.IntervalHist[i]
	}
	c.Regions += other.Regions
	c.PowerFailures += other.PowerFailures
	c.RestoreCycles += other.RestoreCycles
}

// RecordInterval buckets one checkpoint interval length in cycles.
func (c *Counters) RecordInterval(cycles uint64) {
	switch {
	case cycles < 1_000:
		c.IntervalHist[0]++
	case cycles < 10_000:
		c.IntervalHist[1]++
	case cycles < 100_000:
		c.IntervalHist[2]++
	default:
		c.IntervalHist[3]++
	}
}

// AvgCheckpointLines is the paper Section 8 "average size of a checkpoint"
// statistic, in cache lines.
func (c *Counters) AvgCheckpointLines() float64 {
	if c.Checkpoints == 0 {
		return 0
	}
	return float64(c.CheckpointLines) / float64(c.Checkpoints)
}

// NVMBytes is the paper's "NVM transfers" metric: total bytes moved between
// the processor/cache and non-volatile memory in either direction.
func (c *Counters) NVMBytes() uint64 { return c.NVMReadBytes + c.NVMWriteBytes }

// HitRate returns the data-cache hit rate in [0,1], or 0 for cacheless runs.
func (c *Counters) HitRate() float64 {
	total := c.CacheHits + c.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(c.CacheHits) / float64(total)
}

// Diff lists the fields on which two counter sets disagree, as
// "Field: got vs want" lines (a testing aid; empty means equal).
func (c Counters) Diff(o Counters) []string {
	var out []string
	cv, ov := reflect.ValueOf(c), reflect.ValueOf(o)
	t := cv.Type()
	for i := 0; i < t.NumField(); i++ {
		a, b := cv.Field(i).Interface(), ov.Field(i).Interface()
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v vs %v", t.Field(i).Name, a, b))
		}
	}
	return out
}

// String renders the counters as an aligned human-readable block. It walks
// the struct fields the same way Diff does, so a newly added counter can
// never silently drop out of the rendering (the old hand-maintained row list
// omitted Loads, Stores, AdaptiveCkpts, Regions, RestoreCycles,
// MaxCheckpointLines and the interval histogram).
func (c *Counters) String() string {
	var b strings.Builder
	v := reflect.ValueOf(*c)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		name, fv := t.Field(i).Name, v.Field(i)
		if fv.Kind() == reflect.Array { // IntervalHist
			parts := make([]string, fv.Len())
			for j := range parts {
				parts[j] = fmt.Sprintf("%d", fv.Index(j).Uint())
			}
			fmt.Fprintf(&b, "  %-22s %12s  (<1k / <10k / <100k / >=100k cycles)\n",
				fieldLabel(name), strings.Join(parts, "/"))
			continue
		}
		fmt.Fprintf(&b, "  %-22s %12d\n", fieldLabel(name), fv.Uint())
	}
	return b.String()
}

// fieldLabel renders a counter field name as a spaced lowercase label,
// keeping acronym runs intact: NVMReadBytes -> "nvm read bytes",
// MaxCheckpointLines -> "max checkpoint lines".
func fieldLabel(name string) string {
	runes := []rune(name)
	var b strings.Builder
	for i, r := range runes {
		startsWord := i > 0 && unicode.IsUpper(r) &&
			(!unicode.IsUpper(runes[i-1]) || (i+1 < len(runes) && unicode.IsLower(runes[i+1])))
		if startsWord {
			b.WriteByte(' ')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
