package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// standard library writes it but has no reader, so decodeProfile parses just
// the fields folding needs: each sample's CPU time and its stack of function
// names, leaf first.

// stackSample is one profile sample: its CPU nanoseconds and its frames,
// innermost first, inlined frames expanded.
type stackSample struct {
	nanos  int64
	frames []string
}

// Field numbers of profile.proto (github.com/google/pprof/proto/profile.proto).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("truncated protobuf")

// pbField is one decoded protobuf field: a varint, or the bytes of a
// length-delimited field.
type pbField struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated integer field, which the encoder writes either
// packed (one length-delimited field) or as separate varints.
func varints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// decodeProfile parses a gzipped CPU profile into its samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		rawSample [][]pbField
	)
	for _, f := range top {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.bytes))
		case profFunction:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, fmt.Errorf("cpu profile function: %w", err)
			}
			var id uint64
			var name int64
			for _, g := range fs {
				switch g.num {
				case functionID:
					id = g.varint
				case functionName:
					name = int64(g.varint)
				}
			}
			funcName[id] = name
		case profLocation:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, fmt.Errorf("cpu profile location: %w", err)
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case locationID:
					id = g.varint
				case locationLine:
					ls, err := pbFields(g.bytes)
					if err != nil {
						return nil, fmt.Errorf("cpu profile line: %w", err)
					}
					for _, l := range ls {
						if l.num == lineFunctionID {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			locFuncs[id] = fns
		case profSample:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, fmt.Errorf("cpu profile sample: %w", err)
			}
			rawSample = append(rawSample, fs)
		}
	}

	name := func(fn uint64) string {
		if i, ok := funcName[fn]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(rawSample))
	for _, fs := range rawSample {
		var locs, vals []uint64
		for _, g := range fs {
			switch g.num {
			case sampleLocationID:
				if locs, err = varints(locs, g); err != nil {
					return nil, fmt.Errorf("cpu profile sample: %w", err)
				}
			case sampleValue:
				if vals, err = varints(vals, g); err != nil {
					return nil, fmt.Errorf("cpu profile sample: %w", err)
				}
			}
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds].
		if len(vals) < 2 {
			return nil, fmt.Errorf("cpu profile sample has %d values, want 2", len(vals))
		}
		s := stackSample{nanos: int64(vals[1])}
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				s.frames = append(s.frames, name(fn))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// Buckets for samples without a frame of this repository's modules.
const (
	bucketGC    = "runtime.gc"
	bucketOther = "other"
)

const modulePrefix = "nacho/internal/"

// gcWorkers are the runtime's background garbage-collection goroutines.
// Assists are not here: they run inside an allocation, under the frame of
// the module that allocated.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// foldStack names the module a sample's time belongs to: the nearest
// nacho/internal/<module> frame to the leaf, so a map lookup or an
// allocation counts toward the module that asked for it. Samples with no
// such frame go to bucketGC when a background GC worker runs them and to
// bucketOther otherwise.
func foldStack(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		for _, w := range gcWorkers {
			if f == w {
				return bucketGC
			}
		}
	}
	return bucketOther
}

// foldProfile sums each bucket's CPU seconds.
func foldProfile(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[foldStack(s.frames)] += float64(s.nanos) / 1e9
	}
	return out
}
