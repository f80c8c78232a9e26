//go:build !race

// The allocation gate runs only without the race detector: -race makes
// sync.Pool drop items randomly (by design), so pooled buffers look
// like fresh allocations under it. `make verify` runs the race build;
// CI's bench-smoke job runs this gate in a plain build.
package transport

import (
	"testing"

	"moc/internal/mop"
)

// TestSendPathZeroAllocs is the committed allocation threshold for the
// steady-state send path: encode-into-pooled-buffer must not allocate
// at all once the pool and registry are warm. If this fails, something
// on the hot path regressed — a per-frame descriptor, a buffer that
// escapes, an interface box.
func TestSendPathZeroAllocs(t *testing.T) {
	// Pre-boxed payload: the caller owns the concrete→any conversion,
	// the transport owns everything after it.
	var payload any = mop.WriteOp{X: 3, V: 42}
	if _, err := BenchEncodeFrame(payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := BenchEncodeFrame(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("send path allocates %.1f times per frame, want 0", allocs)
	}
}

// BenchmarkEncodeFrame measures the send-side encode path; its
// allocs/op is the number TestSendPathZeroAllocs gates on.
func BenchmarkEncodeFrame(b *testing.B) {
	var payload any = mop.WriteOp{X: 3, V: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BenchEncodeFrame(payload); err != nil {
			b.Fatal(err)
		}
	}
}
