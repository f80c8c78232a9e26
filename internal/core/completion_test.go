package core

import (
	"fmt"
	"sync"
	"testing"

	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/transport"
)

// newClusterStore builds a 3-process store over a loopback TCP cluster
// in the deployed embedded shape: batch 32 and 32 issuing lanes.
func newClusterStore(tb testing.TB, cfg Config) *Store {
	tb.Helper()
	cl, err := transport.NewCluster(3)
	if err != nil {
		tb.Fatalf("NewCluster: %v", err)
	}
	cfg.Procs, cfg.Links = 3, cl.Factory()
	cfg.BatchSize, cfg.MaxInflight = 32, 32
	if cfg.Objects == nil {
		cfg.Objects = []string{"a", "b", "c", "d"}
	}
	s, err := New(cfg)
	if err != nil {
		cl.Close()
		tb.Fatalf("New: %v", err)
	}
	tb.Cleanup(func() {
		s.Close()
		cl.Close()
	})
	return s
}

// TestRecordSinkResponseOrder: the RecordSink sees every record once, in
// strictly increasing response order, and never two calls at once. The
// sink takes no lock of its own, so under -race a concurrent call is
// also a reported data race.
func TestRecordSinkResponseOrder(t *testing.T) {
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/shards=%d", cons, shards), func(t *testing.T) {
				var (
					last       int64 = -1
					sunk, bad  int
					firstStale string
				)
				s := newClusterStore(t, Config{
					Consistency: cons, Shards: shards, DisableRecording: true,
					RecordSink: func(rec mop.Record) {
						if rec.Resp <= last {
							if bad == 0 {
								firstStale = fmt.Sprintf("Resp %d after %d", rec.Resp, last)
							}
							bad++
						}
						last = rec.Resp
						sunk++
					},
				})
				const perLane = 40
				var wg sync.WaitGroup
				var mu sync.Mutex
				issued := 0
				for i := 0; i < s.Procs(); i++ {
					p, _ := s.Process(i)
					for lane := 0; lane < 32; lane++ {
						wg.Add(1)
						go func(i, lane int) {
							defer wg.Done()
							n := 0
							for j := 0; j < perLane; j++ {
								x := object.ID((lane + j) % 4)
								var op mop.Procedure = mop.WriteOp{X: x, V: object.Value(1000*i + j)}
								if j%4 == 3 {
									op = mop.ReadOp{X: x}
								}
								if _, err := p.Exec(op, ExecOptions{Level: One}); err != nil {
									t.Errorf("P%d lane %d: %v", i, lane, err)
									return
								}
								n++
							}
							mu.Lock()
							issued += n
							mu.Unlock()
						}(i, lane)
					}
				}
				wg.Wait()
				if sunk != issued {
					t.Errorf("sink saw %d records, %d operations completed", sunk, issued)
				}
				if bad > 0 {
					t.Fatalf("%d of %d records reached the sink out of response order (first: %s)", bad, sunk, firstStale)
				}
			})
		}
	}
}

// BenchmarkExecQueryMSC is one m-SC query through Process.Exec: a local
// read (A3) run on the caller, recorded, and returned.
func BenchmarkExecQueryMSC(b *testing.B) {
	s, err := New(Config{Procs: 3, Objects: []string{"x", "y"}, Consistency: MSequential, DisableRecording: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	p, _ := s.Process(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(mop.ReadOp{X: 0}, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecUpdateMSC is one m-SC update at a time through
// Process.Exec over the simulated network without batching: with
// nothing else in flight, its allocations per operation do not depend
// on scheduling, so it carries the update path's allocation ceiling.
func BenchmarkExecUpdateMSC(b *testing.B) {
	s, err := New(Config{Procs: 3, Objects: []string{"x", "y"}, Consistency: MSequential, DisableRecording: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	p, _ := s.Process(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(mop.WriteOp{X: object.ID(i % 2), V: object.Value(i)}, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecUpdatePipelinedMSC keeps 32 m-SC updates of one process
// in flight through ExecAsync over the loopback cluster, so allocs/op
// counts every allocation an update costs the whole system: issuance,
// batching, ordering, transport, the three applies and the completion.
func BenchmarkExecUpdatePipelinedMSC(b *testing.B) {
	s := newClusterStore(b, Config{Consistency: MSequential, DisableRecording: true})
	p, _ := s.Process(1)
	var ring [32]*Future
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := &ring[i%len(ring)]
		if *slot != nil {
			if _, err := (*slot).Wait(); err != nil {
				b.Fatal(err)
			}
		}
		f, err := p.ExecAsync(mop.WriteOp{X: object.ID(i % 4), V: object.Value(i)}, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		*slot = f
	}
	for _, f := range ring {
		if f != nil {
			if _, err := f.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
