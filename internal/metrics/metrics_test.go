package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestAddAccumulatesEveryField(t *testing.T) {
	a := Counters{
		Cycles: 1, Instructions: 2, Checkpoints: 3, CheckpointLines: 4,
		ForcedCkpts: 6, NVMReads: 7, NVMWrites: 8,
		NVMReadBytes: 9, NVMWriteBytes: 10, CacheHits: 11, CacheMisses: 12,
		Evictions: 13, SafeEvictions: 14, UnsafeEvictions: 15,
		DroppedStackLines: 16, Regions: 17, PowerFailures: 18, RestoreCycles: 19,
	}
	var sum Counters
	sum.Add(a)
	sum.Add(a)
	if sum.Cycles != 2 || sum.RestoreCycles != 38 || sum.Regions != 34 ||
		sum.DroppedStackLines != 32 || sum.NVMWriteBytes != 20 {
		t.Errorf("Add wrong: %+v", sum)
	}
}

func TestNVMBytes(t *testing.T) {
	c := Counters{NVMReadBytes: 100, NVMWriteBytes: 40}
	if c.NVMBytes() != 140 {
		t.Errorf("NVMBytes = %d", c.NVMBytes())
	}
}

func TestHitRate(t *testing.T) {
	c := Counters{CacheHits: 3, CacheMisses: 1}
	if c.HitRate() != 0.75 {
		t.Errorf("HitRate = %f", c.HitRate())
	}
	var zero Counters
	if zero.HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestStringIncludesKeyCounters(t *testing.T) {
	c := Counters{Cycles: 123456, Checkpoints: 42}
	s := c.String()
	for _, want := range []string{"cycles", "123456", "checkpoints", "42", "power failures"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestRecordIntervalBuckets(t *testing.T) {
	var c Counters
	for _, v := range []uint64{0, 999, 1000, 9999, 10_000, 99_999, 100_000, 1 << 40} {
		c.RecordInterval(v)
	}
	want := [4]uint64{2, 2, 2, 2}
	if c.IntervalHist != want {
		t.Errorf("hist = %v, want %v", c.IntervalHist, want)
	}
	var sum Counters
	sum.Add(c)
	sum.Add(c)
	if sum.IntervalHist != [4]uint64{4, 4, 4, 4} {
		t.Errorf("Add hist = %v", sum.IntervalHist)
	}
}

func TestAvgCheckpointLines(t *testing.T) {
	c := Counters{Checkpoints: 4, CheckpointLines: 10}
	if c.AvgCheckpointLines() != 2.5 {
		t.Errorf("avg = %f", c.AvgCheckpointLines())
	}
	var zero Counters
	if zero.AvgCheckpointLines() != 0 {
		t.Error("zero checkpoints should average 0")
	}
}

func TestMaxCheckpointLinesAdd(t *testing.T) {
	var sum Counters
	sum.Add(Counters{MaxCheckpointLines: 3})
	sum.Add(Counters{MaxCheckpointLines: 9})
	sum.Add(Counters{MaxCheckpointLines: 5})
	if sum.MaxCheckpointLines != 9 {
		t.Errorf("max = %d, want 9", sum.MaxCheckpointLines)
	}
}

// fillDistinct sets every counter field to a distinct value via the same
// reflective walk Diff and String use.
func fillDistinct(c *Counters) {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(uint64(100*(i+1) + j))
			}
			continue
		}
		f.SetUint(uint64(100 * (i + 1)))
	}
}

// TestStringIncludesEveryField is the regression net for the old
// hand-maintained String, which silently omitted seven of today's fields
// (Loads, Stores, AdaptiveCkpts, Regions, RestoreCycles, MaxCheckpointLines
// and the interval histogram): every field's distinct value must render.
func TestStringIncludesEveryField(t *testing.T) {
	var c Counters
	fillDistinct(&c)
	s := c.String()
	v := reflect.ValueOf(c)
	tp := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				if want := fmt.Sprintf("%d", f.Index(j).Uint()); !strings.Contains(s, want) {
					t.Errorf("String() missing %s[%d] = %s:\n%s", tp.Field(i).Name, j, want, s)
				}
			}
			continue
		}
		if want := fmt.Sprintf("%d", f.Uint()); !strings.Contains(s, want) {
			t.Errorf("String() missing %s = %s:\n%s", tp.Field(i).Name, want, s)
		}
	}
}

// TestStringGolden pins the exact rendering, field order included.
func TestStringGolden(t *testing.T) {
	var c Counters
	fillDistinct(&c)
	want := `  cycles                          100
  instructions                    200
  loads                           300
  stores                          400
  checkpoints                     500
  checkpoint lines                600
  max checkpoint lines            700
  forced ckpts                    800
  adaptive ckpts                  900
  nvm reads                      1000
  nvm writes                     1100
  nvm read bytes                 1200
  nvm write bytes                1300
  cache hits                     1400
  cache misses                   1500
  evictions                      1600
  safe evictions                 1700
  unsafe evictions               1800
  dropped stack lines            1900
  regions                        2000
  interval hist          2100/2101/2102/2103  (<1k / <10k / <100k / >=100k cycles)
  power failures                 2200
  restore cycles                 2300
`
	if got := c.String(); got != want {
		t.Errorf("String() drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestFieldLabel(t *testing.T) {
	for name, want := range map[string]string{
		"Cycles":             "cycles",
		"NVMReadBytes":       "nvm read bytes",
		"MaxCheckpointLines": "max checkpoint lines",
		"ForcedCkpts":        "forced ckpts",
		"IntervalHist":       "interval hist",
	} {
		if got := fieldLabel(name); got != want {
			t.Errorf("fieldLabel(%q) = %q, want %q", name, got, want)
		}
	}
}
