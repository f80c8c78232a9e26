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
// also a reported data race. m-lin queries draw every level, so strong
// queries complete from the protocol's loops beside local reads.
func TestRecordSinkResponseOrder(t *testing.T) {
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		levels := []Level{One}
		if cons == MLinearizable {
			levels = []Level{One, Quorum, All}
		}
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
								level := levels[(lane+j/4)%len(levels)]
								if _, err := p.Exec(op, ExecOptions{Level: level}); err != nil {
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

// benchLone runs op(i) through Process.Exec of process proc, one
// operation at a time, on a 3-process store over the simulated network
// without batching.
func benchLone(b *testing.B, cons Consistency, proc int, opts ExecOptions, op func(i int) mop.Procedure) {
	s, err := New(Config{Procs: 3, Objects: []string{"x", "y"}, Consistency: cons, DisableRecording: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	p, _ := s.Process(proc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(op(i), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func readX(int) mop.Procedure { return mop.ReadOp{X: 0} }

func writeXY(i int) mop.Procedure { return mop.WriteOp{X: object.ID(i % 2), V: object.Value(i)} }

// BenchmarkExecQueryMSC is one m-SC query through Process.Exec: a local
// read (A3) run on the caller, recorded, and returned.
func BenchmarkExecQueryMSC(b *testing.B) { benchLone(b, MSequential, 0, ExecOptions{}, readX) }

// BenchmarkExecUpdateMSC is one m-SC update at a time: with nothing
// else in flight, its allocations per operation barely depend on
// scheduling, so it carries the update path's allocation ceiling.
func BenchmarkExecUpdateMSC(b *testing.B) { benchLone(b, MSequential, 1, ExecOptions{}, writeXY) }

// BenchmarkExecQueryMLin is one QUORUM query at a time: the query
// round, the read barrier and the completion from the message loop.
func BenchmarkExecQueryMLin(b *testing.B) {
	benchLone(b, MLinearizable, 0, ExecOptions{Level: Quorum}, readX)
}

// BenchmarkExecUpdateMLin is one m-lin update at a time: the broadcast,
// the three applies, the write quorum's acks and the completion from
// whichever loop records the deciding ack.
func BenchmarkExecUpdateMLin(b *testing.B) { benchLone(b, MLinearizable, 1, ExecOptions{}, writeXY) }

// BenchmarkExecUpdatePipelinedMSC keeps 32 m-SC updates of one process
// in flight through ExecAsync over the loopback cluster, so allocs/op
// counts every allocation an update costs the whole system: issuance,
// batching, ordering, transport, the three applies and the completion.
func BenchmarkExecUpdatePipelinedMSC(b *testing.B) { benchPipelined(b, MSequential) }

// BenchmarkExecUpdatePipelinedMLin is the pipelined shape for m-lin,
// whose updates add the write quorum's acks.
func BenchmarkExecUpdatePipelinedMLin(b *testing.B) { benchPipelined(b, MLinearizable) }

func benchPipelined(b *testing.B, cons Consistency) {
	s := newClusterStore(b, Config{Consistency: cons, DisableRecording: true})
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
