package core

import (
	"sync"
	"testing"
	"time"

	"moc/internal/mop"
	"moc/internal/object"
)

// batchKnobs is the batching configuration the integration tests run
// under: small enough to exercise partial-window flushes, large enough
// that bursts coalesce.
const testBatchSize = 4

const testBatchWindow = 500 * time.Microsecond

// TestBatchedChaosCheckerAccepted runs the batched update path over the
// lossy, duplicating, partitioned network for every broadcast
// implementation and both broadcast consistencies: coalesced BatchMsg
// frames must expand back into histories the unchanged exact checkers
// accept.
func TestBatchedChaosCheckerAccepted(t *testing.T) {
	for _, bc := range []struct {
		name string
		kind BroadcastKind
	}{
		{"sequencer", SequencerBroadcast},
		{"lamport", LamportBroadcast},
		{"token", TokenBroadcast},
	} {
		for _, cons := range []Consistency{MSequential, MLinearizable} {
			t.Run(bc.name+"/"+cons.String(), func(t *testing.T) {
				t.Parallel()
				s := newStore(t, Config{
					Procs:       3,
					Consistency: cons,
					Broadcast:   bc.kind,
					Seed:        91,
					MaxDelay:    time.Millisecond,
					Faults:      chaosFaults(),
					BatchSize:   testBatchSize,
					BatchWindow: testBatchWindow,
				})
				runChaosWorkload(t, s)
				waitForRetransmissions(t, s)

				exact, err := s.VerifyExact()
				if err != nil {
					t.Fatalf("VerifyExact: %v", err)
				}
				if !exact.OK {
					t.Fatalf("batched history fails exact %s checker", cons)
				}
				fast, err := s.Verify()
				if err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if !fast.OK {
					t.Fatalf("batched history fails Theorem 7 %s verification", cons)
				}
				if flushes, _, _ := s.BatchStats(); flushes == 0 {
					t.Fatal("batching enabled but no flushes metered")
				}
			})
		}
	}
}

// TestBatchedCrashRecovery runs the batched path under the crash
// schedule: coalesced frames, sequencer failover, checkpointed recovery
// — and the exact checker must still accept the history. The recovery
// `applied` counters live in the expanded (renumbered) delivery space,
// which every process derives identically.
func TestBatchedCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule needs its full wall-clock timeline")
	}
	s := newStore(t, Config{
		Procs:        5,
		Consistency:  MSequential,
		Broadcast:    SequencerBroadcast,
		Seed:         93,
		MaxDelay:     time.Millisecond,
		Faults:       crashFaults(),
		FD:           crashFD(),
		QueryTimeout: scaled(15 * time.Millisecond),
		QueryRetries: 2,
		BatchSize:    testBatchSize,
		BatchWindow:  testBatchWindow,
	})
	origin := time.Now()
	runCrashSchedule(t, s, origin)

	exact, err := s.VerifyExact()
	if err != nil {
		t.Fatalf("VerifyExact: %v", err)
	}
	if !exact.OK {
		t.Fatal("batched history under crashes fails exact checker")
	}
	ns := s.NetStats()
	if ns.Crashes == 0 || ns.Restarts == 0 {
		t.Fatalf("crash schedule not exercised: %+v", ns)
	}
}

// TestPipelinedUpdatesVerified drives MaxInflight parallel updates per
// process through ExecuteAsync and re-checks the history with the exact
// checkers: operations overlapping on one process id must be recorded
// under distinct issuing lanes, keeping the history well-formed and
// consistent.
func TestPipelinedUpdatesVerified(t *testing.T) {
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		t.Run(cons.String(), func(t *testing.T) {
			t.Parallel()
			const inflight = 3
			s := newStore(t, Config{
				Procs:       2,
				Consistency: cons,
				Seed:        95,
				MaxDelay:    500 * time.Microsecond,
				MaxInflight: inflight,
			})

			var wg sync.WaitGroup
			for i := 0; i < s.Procs(); i++ {
				p, err := s.Process(i)
				if err != nil {
					t.Fatalf("Process(%d): %v", i, err)
				}
				wg.Add(1)
				go func(i int, p *Process) {
					defer wg.Done()
					futs := make([]*Future, 0, 2*inflight)
					for j := 0; j < 2*inflight; j++ {
						f, err := p.ExecAsync(mop.WriteOp{X: object.ID(j % 3), V: object.Value(10*i + j)}, ExecOptions{})
						if err != nil {
							t.Errorf("proc %d ExecAsync: %v", i, err)
							return
						}
						futs = append(futs, f)
					}
					for j, f := range futs {
						if _, err := f.Wait(); err != nil {
							t.Errorf("proc %d wait %d: %v", i, j, err)
						}
					}
					// A query after the pipelined burst still works.
					if _, err := p.Read(object.ID(i % 3)); err != nil {
						t.Errorf("proc %d read: %v", i, err)
					}
				}(i, p)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// The burst oversubscribes the lanes, so some operation must have
			// been recorded under a virtual lane process id.
			lanes := false
			for _, rec := range s.Records() {
				if rec.Proc >= s.Procs() {
					lanes = true
					break
				}
			}
			if !lanes {
				t.Fatalf("%d in-flight updates per process never left lane 0", 2*inflight)
			}

			exact, err := s.VerifyExact()
			if err != nil {
				t.Fatalf("VerifyExact: %v", err)
			}
			if !exact.OK {
				t.Fatalf("pipelined history fails exact %s checker", cons)
			}
			fast, err := s.Verify()
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if !fast.OK {
				t.Fatalf("pipelined history fails Theorem 7 %s verification", cons)
			}
		})
	}
}

// TestBatchedPipelinedChaos combines the whole tentpole — pipelined
// issuance feeding the batching broadcaster — under delivery faults,
// and requires multi-update batches to actually form.
func TestBatchedPipelinedChaos(t *testing.T) {
	s := newStore(t, Config{
		Procs:       3,
		Consistency: MSequential,
		Seed:        97,
		MaxDelay:    time.Millisecond,
		Faults:      chaosFaults(),
		BatchSize:   testBatchSize,
		BatchWindow: 5 * time.Millisecond,
		MaxInflight: 4,
	})

	var wg sync.WaitGroup
	for i := 0; i < s.Procs(); i++ {
		p, err := s.Process(i)
		if err != nil {
			t.Fatalf("Process(%d): %v", i, err)
		}
		wg.Add(1)
		go func(i int, p *Process) {
			defer wg.Done()
			var futs []*Future
			for j := 0; j < 8; j++ {
				f, err := p.ExecAsync(mop.WriteOp{X: object.ID(j % 3), V: object.Value(100*i + j)}, ExecOptions{})
				if err != nil {
					t.Errorf("proc %d ExecAsync: %v", i, err)
					return
				}
				futs = append(futs, f)
			}
			for j, f := range futs {
				if _, err := f.Wait(); err != nil {
					t.Errorf("proc %d wait %d: %v", i, j, err)
				}
			}
		}(i, p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	_, batches, batched := s.BatchStats()
	if batches == 0 || batched < 2 {
		t.Fatalf("pipelined burst formed no multi-update batches: batches=%d batched=%d", batches, batched)
	}
	exact, err := s.VerifyExact()
	if err != nil {
		t.Fatalf("VerifyExact: %v", err)
	}
	if !exact.OK {
		t.Fatal("batched+pipelined history fails exact checker")
	}
}

// TestBatchPipelineValidation pins the config surface: the knobs must be
// non-negative.
func TestBatchPipelineValidation(t *testing.T) {
	base := Config{Procs: 2, Objects: []string{"x"}}

	bad := base
	bad.MaxInflight = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative MaxInflight accepted")
	}
	bad = base
	bad.BatchSize = -2
	if _, err := New(bad); err == nil {
		t.Fatal("negative BatchSize accepted")
	}

	// MaxInflight == 1 and BatchSize == 1 are the defaults spelled out.
	ok := base
	ok.MaxInflight = 1
	ok.BatchSize = 1
	if s, err := New(ok); err != nil {
		t.Fatalf("MaxInflight=1 rejected: %v", err)
	} else {
		s.Close()
	}
}
