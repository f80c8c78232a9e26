// Package testutil provides shared helpers for protocol tests that wait
// on delivery over the simulated network. The helpers bound every wait
// with a deadline and, on timeout, dump the transport counters of every
// registered stats source — so a hung-delivery failure reports how many
// messages were sent, dropped, duplicated, retransmitted, crashed and
// restarted per transport instead of a bare "timed out".
package testutil

import (
	"sync"
	"testing"
	"time"

	"moc/internal/network"
)

// StatsSource names one transport whose counters should be dumped when a
// wait times out.
type StatsSource struct {
	Name  string
	Stats func() network.Stats
}

// Source builds a StatsSource from anything with a Stats method (a
// network.Link, an abcast.Broadcaster via NetStats, ...).
func Source(name string, stats func() network.Stats) StatsSource {
	return StatsSource{Name: name, Stats: stats}
}

// Drain receives n values from ch, failing t (via Errorf, so sibling
// collectors keep running) and dumping the stats sources if the timeout
// elapses first. It returns the values received so far.
func Drain[T any](t testing.TB, timeout time.Duration, ch <-chan T, n int, sources ...StatsSource) []T {
	t.Helper()
	out := make([]T, 0, n)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for len(out) < n {
		select {
		case v := <-ch:
			out = append(out, v)
		case <-deadline.C:
			t.Errorf("timed out after %v with %d/%d deliveries", timeout, len(out), n)
			DumpStats(t, sources...)
			return out
		}
	}
	return out
}

// Collector records the values a callback hands it, such as a
// broadcaster's subscriber, for a test to wait on. Add never waits on a
// reader. The zero value is ready to use.
type Collector[T any] struct {
	mu    sync.Mutex
	items []T
}

// Add records v. It is the subscriber callback.
func (c *Collector[T]) Add(v T) {
	c.mu.Lock()
	c.items = append(c.items, v)
	c.mu.Unlock()
}

// Len returns how many values have arrived.
func (c *Collector[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Wait polls until n values have arrived and returns them, in arrival
// order. If fewer have arrived by the timeout, it fails t (via Errorf,
// like Drain), dumps the stats sources and returns those.
func (c *Collector[T]) Wait(t testing.TB, timeout time.Duration, n int, sources ...StatsSource) []T {
	t.Helper()
	for deadline := time.Now().Add(timeout); c.Len() < n && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	c.mu.Lock()
	out := append([]T(nil), c.items[:min(n, len(c.items))]...)
	c.mu.Unlock()
	if len(out) < n {
		t.Errorf("timed out after %v with %d/%d deliveries", timeout, len(out), n)
		DumpStats(t, sources...)
	}
	return out
}

// Eventually polls cond every millisecond until it returns true, failing
// t (fatally) and dumping the stats sources if the timeout elapses
// first.
func Eventually(t testing.TB, timeout time.Duration, cond func() bool, sources ...StatsSource) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			DumpStats(t, sources...)
			t.Fatalf("condition not reached within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// DumpStats logs every source's counters, including the per-kind
// breakdown, for post-mortem diagnosis of a hung or failed wait.
func DumpStats(t testing.TB, sources ...StatsSource) {
	t.Helper()
	for _, src := range sources {
		st := src.Stats()
		t.Logf("%s: %d msgs / %d bytes; dropped %d, duplicated %d, retransmitted %d, crashes %d, restarts %d, reconnects %d, batches %d (%d frames)",
			src.Name, st.Messages, st.Bytes, st.Dropped, st.Duplicated, st.Retransmitted, st.Crashes, st.Restarts, st.Reconnects, st.Batches, st.BatchedFrames)
		for kind, ks := range st.ByKind {
			t.Logf("%s:   %-14s %6d msgs %8d bytes", src.Name, kind, ks.Messages, ks.Bytes)
		}
	}
}
