package main

import (
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie strictly above a reported tail.
const tailSamples = 10

// tail returns the highest percentile of xs that has at least tailSamples
// samples strictly above it: the value, and the percentage of samples at or
// below it. With too few samples (or too many ties at the top) no such
// percentile exists and ok is false.
func tail(xs []float64) (value, pct float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i := len(s) - tailSamples - 1; i >= 0; i-- {
		above := len(s) - sort.Search(len(s), func(k int) bool { return s[k] > s[i] })
		if above >= tailSamples {
			// Report the percentile of the last sample tied with s[i].
			last := len(s) - above - 1
			return s[i], 100 * float64(last+1) / float64(len(s)), true
		}
	}
	return 0, 0, false
}
