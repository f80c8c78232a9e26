package mop

import (
	"sync"
	"testing"
	"time"
)

// readConcurrently takes reads readings from each of callers goroutines
// at once and returns them per caller.
func readConcurrently(c *Clock, callers, reads int) [][]int64 {
	got := make([][]int64, callers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]int64, reads)
			for i := range got[g] {
				got[g][i] = c.Now()
			}
		}(g)
	}
	wg.Wait()
	return got
}

// TestClockUniqueAndIncreasing: readings from concurrent goroutines are
// unique, and each goroutine sees its own readings strictly increase.
func TestClockUniqueAndIncreasing(t *testing.T) {
	const callers, reads = 8, 2000
	seen := make(map[int64]bool, callers*reads)
	for g, rs := range readConcurrently(NewClock(time.Now()), callers, reads) {
		for i, r := range rs {
			if i > 0 && r <= rs[i-1] {
				t.Fatalf("caller %d: reading %d = %d after %d", g, i, r, rs[i-1])
			}
			if seen[r] {
				t.Fatalf("reading %d returned twice", r)
			}
			seen[r] = true
		}
	}
}

// TestClockNudgesPastAStandingWallClock: with the origin ahead of the
// wall clock (an epoch set by a peer whose clock runs ahead), real time
// never passes the last reading, so every reading is the nudge alone:
// the readings of all callers together are exactly 1..N.
func TestClockNudgesPastAStandingWallClock(t *testing.T) {
	const callers, reads = 8, 500
	seen := make([]bool, callers*reads+1)
	for g, rs := range readConcurrently(NewClock(time.Now().Add(time.Hour)), callers, reads) {
		for i, r := range rs {
			if r < 1 || r > callers*reads || seen[r] {
				t.Fatalf("caller %d: reading %d = %d, want a fresh value in [1, %d]", g, i, r, callers*reads)
			}
			if i > 0 && r <= rs[i-1] {
				t.Fatalf("caller %d: reading %d = %d after %d", g, i, r, rs[i-1])
			}
			seen[r] = true
		}
	}
}
