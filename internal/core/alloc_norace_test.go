//go:build !race

// The allocation ceilings run only without the race detector, which
// adds allocations of its own (and drops sync.Pool items by design).
package core

import "testing"

// Allocation ceilings for the replica's completion paths under both
// conditions, so a per-operation goroutine, channel or closure hand-off
// cannot creep back. The m-SC query is a local read on the caller and
// allocates exactly 10 times, so its ceiling is that value: it builds no
// query state. In the other lone shapes a fraction of an allocation
// depends on scheduling — measured from one idle CPU to two CPUs beside
// six busy loops, the m-SC update reads 37.8–38.0, the m-lin QUORUM
// query 42.0–42.1 and the m-lin update 43.9–44.0 — so their ceilings
// leave 2 of headroom. The m-SC update allocates no write phase; the
// m-lin update's write phase costs what its non-issuer replicas no
// longer spend on record clones. A goroutine and channel put back in
// front of the completion measure 46 and 47 on the m-lin shapes, over
// the ceiling. The pipelined benchmarks' allocations are spread over a
// batch whose fill depends on load, so they only report and carry no
// ceiling.
const (
	maxAllocsQueryMSC   = 10
	maxAllocsUpdateMSC  = 40
	maxAllocsQueryMLin  = 44
	maxAllocsUpdateMLin = 46
)

func TestExecAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four one-second benchmarks")
	}
	for _, c := range []struct {
		name  string
		bench func(*testing.B)
		max   int64
	}{
		{"m-SC query", BenchmarkExecQueryMSC, maxAllocsQueryMSC},
		{"m-SC update", BenchmarkExecUpdateMSC, maxAllocsUpdateMSC},
		{"m-lin quorum query", BenchmarkExecQueryMLin, maxAllocsQueryMLin},
		{"m-lin update", BenchmarkExecUpdateMLin, maxAllocsUpdateMLin},
	} {
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			t.Errorf("%s benchmark failed before measuring", c.name)
			continue
		}
		if got := r.AllocsPerOp(); got > c.max {
			t.Errorf("%s allocates %d times per operation, ceiling %d", c.name, got, c.max)
		}
	}
}
