package bench

import "testing"

// benchE15Cell runs one sweep cell under the Go benchmark harness; the
// CI bench smoke (`go test -bench=. -benchtime=1x ./internal/bench/...`)
// uses it to keep the batched update path exercised per PR.
func benchE15Cell(b *testing.B, transportKind string, batch int) {
	b.Helper()
	p := e15Sizes(true)
	for i := 0; i < b.N; i++ {
		res, err := runE15Cell(transportKind, batch, p, 42)
		if err != nil {
			b.Fatalf("runE15Cell(%s, %d): %v", transportKind, batch, err)
		}
		b.ReportMetric(res.OpsPerSec, "ops/s")
		if batch > 1 && res.Flushes == 0 {
			b.Fatalf("batching enabled but no flushes metered: %+v", res)
		}
	}
}

func BenchmarkE15UnbatchedTCP(b *testing.B) { benchE15Cell(b, "tcp", 1) }
func BenchmarkE15Batch8TCP(b *testing.B)    { benchE15Cell(b, "tcp", 8) }
func BenchmarkE15Batch8Sim(b *testing.B)    { benchE15Cell(b, "sim", 8) }
