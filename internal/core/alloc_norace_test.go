//go:build !race

// The allocation ceilings run only without the race detector, which
// adds allocations of its own (and drops sync.Pool items by design).
package core

import "testing"

// Allocation ceilings for the m-SC completion path, so a per-operation
// goroutine, channel or closure hand-off cannot creep back. The query
// is a local read on the caller and allocates exactly 10 times, so its
// ceiling is that value. The lone update measures 37.7–38.0 allocations
// per operation, from one idle CPU to two CPUs beside six busy loops; a
// fraction of them depends on scheduling, so its ceiling leaves 2 of
// headroom. A goroutine and channel put back between the delivery loop
// and the completion measure 41–42, over the ceiling. The pipelined
// benchmark's allocations are spread over a batch whose fill depends on
// load, so it only reports and carries no ceiling.
const (
	maxAllocsQueryMSC  = 10
	maxAllocsUpdateMSC = 40
)

func TestExecAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two one-second benchmarks")
	}
	for _, c := range []struct {
		name  string
		bench func(*testing.B)
		max   int64
	}{
		{"query", BenchmarkExecQueryMSC, maxAllocsQueryMSC},
		{"update", BenchmarkExecUpdateMSC, maxAllocsUpdateMSC},
	} {
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			t.Errorf("m-SC %s benchmark failed before measuring", c.name)
			continue
		}
		if got := r.AllocsPerOp(); got > c.max {
			t.Errorf("m-SC %s allocates %d times per operation, ceiling %d", c.name, got, c.max)
		}
	}
}
