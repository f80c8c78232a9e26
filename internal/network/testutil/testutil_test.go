package testutil_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"moc/internal/network"
	"moc/internal/network/testutil"
)

// fakeTB records failures instead of failing the real test, so the
// helpers' timeout paths can themselves be tested. Fatalf stops the
// calling goroutine like the real testing.T, so helpers that rely on
// Fatalf not returning behave identically.
type fakeTB struct {
	testing.TB // panic on anything not overridden
	mu         sync.Mutex
	fatals     []string
	errors     []string
	logs       []string
}

func (f *fakeTB) Helper() {}

func (f *fakeTB) Logf(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.logs = append(f.logs, fmt.Sprintf(format, args...))
}

func (f *fakeTB) Errorf(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}

func (f *fakeTB) Fatalf(format string, args ...any) {
	f.mu.Lock()
	f.fatals = append(f.fatals, fmt.Sprintf(format, args...))
	f.mu.Unlock()
	runtime.Goexit()
}

func (f *fakeTB) snapshot() (fatals, errors, logs []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.fatals...),
		append([]string(nil), f.errors...),
		append([]string(nil), f.logs...)
}

// fixedStats is a stats source with recognizable counters for asserting
// on the dump output.
func fixedStats() network.Stats {
	return network.Stats{
		Messages: 42, Bytes: 1337, Dropped: 7, Retransmitted: 3,
		Batches: 2, BatchedFrames: 9,
		ByKind: map[string]network.KindStats{
			"abc.data": {Messages: 40, Bytes: 1200},
		},
	}
}

// run invokes fn on its own goroutine so a fakeTB.Fatalf (Goexit) only
// stops fn, then waits for it to finish.
func run(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	<-done
}

// TestEventuallyTimesOutAndDumpsStats: a condition that never holds must
// fail fatally once the deadline passes — after dumping every registered
// stats source, including the per-kind breakdown.
func TestEventuallyTimesOutAndDumpsStats(t *testing.T) {
	tb := &fakeTB{}
	polls := 0
	start := time.Now()
	run(func() {
		testutil.Eventually(tb, 30*time.Millisecond, func() bool {
			polls++
			return false
		}, testutil.Source("lossy", fixedStats))
	})
	elapsed := time.Since(start)

	fatals, errors, logs := tb.snapshot()
	if len(fatals) != 1 || !strings.Contains(fatals[0], "condition not reached") {
		t.Fatalf("fatals = %q, want one timeout failure", fatals)
	}
	if len(errors) != 0 {
		t.Fatalf("Eventually reported non-fatal errors: %q", errors)
	}
	if polls == 0 {
		t.Fatal("condition was never polled")
	}
	if elapsed < 30*time.Millisecond {
		t.Fatalf("failed after %v, before the %v deadline", elapsed, 30*time.Millisecond)
	}
	joined := strings.Join(logs, "\n")
	for _, want := range []string{"lossy: 42 msgs / 1337 bytes", "dropped 7", "batches 2 (9 frames)", "abc.data"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("stats dump missing %q:\n%s", want, joined)
		}
	}
}

// TestEventuallySatisfiedReturnsClean: once the condition holds the
// helper returns without failing or logging anything.
func TestEventuallySatisfiedReturnsClean(t *testing.T) {
	tb := &fakeTB{}
	polls := 0
	run(func() {
		testutil.Eventually(tb, 5*time.Second, func() bool {
			polls++
			return polls >= 3
		})
	})
	fatals, errors, logs := tb.snapshot()
	if len(fatals) != 0 || len(errors) != 0 || len(logs) != 0 {
		t.Fatalf("clean run produced output: fatals=%q errors=%q logs=%q", fatals, errors, logs)
	}
}

// TestDrainReturnsAllBeforeDeadline: a quiescent link that already holds
// the expected deliveries is drained completely and promptly, in order,
// with no failure.
func TestDrainReturnsAllBeforeDeadline(t *testing.T) {
	ch := make(chan int, 5)
	for i := 0; i < 5; i++ {
		ch <- i
	}
	tb := &fakeTB{}
	var got []int
	run(func() {
		got = testutil.Drain(tb, 5*time.Second, ch, 5)
	})
	fatals, errors, _ := tb.snapshot()
	if len(fatals) != 0 || len(errors) != 0 {
		t.Fatalf("Drain failed on a full channel: fatals=%q errors=%q", fatals, errors)
	}
	if len(got) != 5 {
		t.Fatalf("drained %d values, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (order not preserved)", i, v, i)
		}
	}
}

// TestDrainTimesOutOnQuiescentLink: when the link goes quiet short of the
// expected count, Drain must terminate at the deadline — returning the
// partial prefix, failing via Errorf (so sibling collectors keep
// running), and dumping the stats sources.
func TestDrainTimesOutOnQuiescentLink(t *testing.T) {
	ch := make(chan int, 2)
	ch <- 10
	ch <- 11
	tb := &fakeTB{}
	var got []int
	start := time.Now()
	run(func() {
		got = testutil.Drain(tb, 30*time.Millisecond, ch, 4, testutil.Source("quiet", fixedStats))
	})
	elapsed := time.Since(start)

	fatals, errors, logs := tb.snapshot()
	if len(fatals) != 0 {
		t.Fatalf("Drain failed fatally, want Errorf: %q", fatals)
	}
	if len(errors) != 1 || !strings.Contains(errors[0], "2/4 deliveries") {
		t.Fatalf("errors = %q, want one 2/4-deliveries timeout", errors)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("partial drain = %v, want [10 11]", got)
	}
	if elapsed < 30*time.Millisecond {
		t.Fatalf("gave up after %v, before the %v deadline", elapsed, 30*time.Millisecond)
	}
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "quiet: 42 msgs") {
		t.Fatalf("timeout did not dump stats:\n%s", joined)
	}
}

// TestCollectorWaitReturnsFirstN: Wait returns the first n values in
// arrival order, whether they were there before it was called or
// arrive while it waits, and later values do not disturb them.
func TestCollectorWaitReturnsFirstN(t *testing.T) {
	var c testutil.Collector[int]
	c.Add(0)
	c.Add(1)
	go func() {
		for i := 2; i < 8; i++ {
			c.Add(i)
		}
	}()
	tb := &fakeTB{}
	var got []int
	run(func() {
		got = c.Wait(tb, 5*time.Second, 5)
	})
	fatals, errors, _ := tb.snapshot()
	if len(fatals) != 0 || len(errors) != 0 {
		t.Fatalf("Wait failed: fatals=%q errors=%q", fatals, errors)
	}
	if len(got) != 5 {
		t.Fatalf("Wait returned %d values, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (arrival order not kept)", i, v, i)
		}
	}
	run(func() {
		got = c.Wait(tb, 5*time.Second, 8)
	})
	if len(got) != 8 || got[7] != 7 || c.Len() != 8 {
		t.Fatalf("second Wait = %v with Len %d, want 0..7", got, c.Len())
	}
}

// TestCollectorWaitTimesOut: short of n values, Wait gives up at the
// deadline with the values it has, fails via Errorf reporting k/n, and
// dumps the stats sources.
func TestCollectorWaitTimesOut(t *testing.T) {
	var c testutil.Collector[int]
	c.Add(10)
	c.Add(11)
	tb := &fakeTB{}
	var got []int
	start := time.Now()
	run(func() {
		got = c.Wait(tb, 30*time.Millisecond, 4, testutil.Source("quiet", fixedStats))
	})
	elapsed := time.Since(start)

	fatals, errors, logs := tb.snapshot()
	if len(fatals) != 0 {
		t.Fatalf("Wait failed fatally, want Errorf: %q", fatals)
	}
	if len(errors) != 1 || !strings.Contains(errors[0], "with 2/4") {
		t.Fatalf("errors = %q, want one timeout with 2/4", errors)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("partial wait = %v, want [10 11]", got)
	}
	if elapsed < 30*time.Millisecond {
		t.Fatalf("gave up after %v, before the %v deadline", elapsed, 30*time.Millisecond)
	}
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "quiet: 42 msgs") {
		t.Fatalf("timeout did not dump stats:\n%s", joined)
	}
}

// TestCollectorConcurrentAdd: Add from several goroutines at once,
// while a waiter watches, loses nothing and keeps each goroutine's
// values in its order. Run under -race, it also shows Add race-clean.
func TestCollectorConcurrentAdd(t *testing.T) {
	const adders, each = 4, 500
	var c testutil.Collector[[2]int]
	var wg sync.WaitGroup
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Add([2]int{a, i})
			}
		}(a)
	}
	got := c.Wait(t, 10*time.Second, adders*each)
	wg.Wait()
	next := make([]int, adders)
	for _, v := range got {
		if v[1] != next[v[0]] {
			t.Fatalf("adder %d: value %d arrived where %d was due", v[0], v[1], next[v[0]])
		}
		next[v[0]]++
	}
	if c.Len() != adders*each {
		t.Fatalf("Len = %d, want %d", c.Len(), adders*each)
	}
}
