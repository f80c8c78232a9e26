package main

import (
	"slices"
	"sort"
)

// segments is how many equal-time pieces a timed window is cut into. An
// end-to-end metric is computed per piece and the median piece is
// reported, so one noisy neighbour on a shared box moves one piece, not
// the number.
const segments = 3

// Operation classes a sample is filed under. Queries on the leveled
// workload are split by the drawn level; everywhere else they are
// classQuery.
const (
	classUpdate uint8 = iota
	classQuery
	classOne
	classQuorum
	classAll
	numClasses
)

// sample is one completed m-operation: when it completed (ns since the
// window opened; negative during warm-up) and how long the caller waited.
type sample struct {
	end   int64
	lat   int64
	class uint8
}

// percentile is the nearest-rank q-quantile of an ascending slice, zero
// when empty.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max-min)/median of the per-segment values: how far the
// pieces of one window disagree.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return (hi - lo) / m
}

// segStat is one metric computed on every segment of a window.
type segStat struct {
	value  float64 // median segment
	spread float64 // (max-min)/median over the segments
	n      int     // samples behind the value, all segments together
	vals   []float64
}

func overSegments(vals []float64, n int) segStat {
	return segStat{value: median(vals), spread: spread(vals), n: n, vals: vals}
}

// windowStats are the end-to-end numbers of one timed window.
type windowStats struct {
	opsPerS              segStat
	queryP50, queryP99   segStat // µs
	updateP50, updateP99 segStat // µs
	levelP50             [numClasses]segStat
	completed            int // operations that completed inside the window
}

// summarize cuts [0, windowNs) into equal-time segments and computes
// throughput and the latency percentiles of each. Samples outside the
// window (warm-up, or completed after the deadline) are left out.
func summarize(samples []sample, windowNs int64) windowStats {
	type bucket struct {
		count int
		lat   [numClasses][]int64
	}
	var segs [segments]bucket
	segNs := windowNs / segments
	var ws windowStats
	for _, s := range samples {
		if s.end < 0 || s.end >= segNs*segments {
			continue
		}
		b := &segs[s.end/segNs]
		b.count++
		b.lat[s.class] = append(b.lat[s.class], s.lat)
		ws.completed++
	}
	rates := make([]float64, segments)
	for i := range segs {
		rates[i] = float64(segs[i].count) / (float64(segNs) / 1e9)
	}
	ws.opsPerS = overSegments(rates, ws.completed)

	// Sort every class of every segment once; the percentiles below only
	// index into the sorted slices.
	var queries [segments][]int64
	for i := range segs {
		for c := range segs[i].lat {
			slices.Sort(segs[i].lat[c])
			if uint8(c) != classUpdate {
				queries[i] = append(queries[i], segs[i].lat[c]...)
			}
		}
		slices.Sort(queries[i])
	}
	// pct takes one percentile per segment; segments without a sample of
	// the class are left out of the median.
	pct := func(q float64, of func(seg int) []int64) segStat {
		vals := make([]float64, 0, segments)
		n := 0
		for i := range segs {
			if lat := of(i); len(lat) > 0 {
				vals = append(vals, float64(percentile(lat, q))/1e3)
				n += len(lat)
			}
		}
		return overSegments(vals, n)
	}
	allQueries := func(i int) []int64 { return queries[i] }
	class := func(c uint8) func(int) []int64 { return func(i int) []int64 { return segs[i].lat[c] } }
	ws.queryP50, ws.queryP99 = pct(0.50, allQueries), pct(0.99, allQueries)
	ws.updateP50, ws.updateP99 = pct(0.50, class(classUpdate)), pct(0.99, class(classUpdate))
	for c := uint8(0); c < numClasses; c++ {
		ws.levelP50[c] = pct(0.50, class(c))
	}
	return ws
}
