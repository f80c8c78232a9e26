package causal

// Whole-run tests: each records a concurrent workload the way a
// core.Store records its own, rebuilds the history with core.BuildHistory
// (the write tags name every read's writer) and checks it with the exact
// m-causal decider — m-causal consistency has no Theorem 7 shortcut.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"moc/internal/checker"
	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/network/testutil"
	"moc/internal/object"
	"moc/internal/workload"
)

// recorder runs m-operations on a protocol and keeps every record.
type recorder struct {
	p    *Protocol
	reg  *object.Registry
	mu   sync.Mutex
	recs []mop.Record
}

func newRecorder(t *testing.T, cfg Config) *recorder {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	return &recorder{p: p, reg: cfg.Reg}
}

// exec runs pr as an m-operation of proc and returns its result.
func (r *recorder) exec(proc int, pr mop.Procedure) (any, error) {
	rec, err := r.p.Exec(proc, pr, mop.ExecOptions{})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
	return rec.Result, nil
}

// verify rebuilds the quiescent run's history and requires it to be
// m-causally consistent.
func (r *recorder) verify(t *testing.T) *history.History {
	t.Helper()
	r.mu.Lock()
	recs := append([]mop.Record(nil), r.recs...)
	r.mu.Unlock()
	h, _, err := core.BuildHistory(r.reg, recs)
	if err != nil {
		t.Fatalf("BuildHistory: %v", err)
	}
	res, err := checker.MCausallyConsistent(h)
	if err != nil {
		t.Fatalf("MCausallyConsistent: %v", err)
	}
	if !res.Consistent {
		t.Fatal("causal protocol produced a non-m-causal history")
	}
	return h
}

// TestWriteReadVerifies is the smallest run: a write, then reads at the
// writer (its own write is visible at once) and at another process.
func TestWriteReadVerifies(t *testing.T) {
	r := newRecorder(t, Config{Procs: 2, Reg: object.Sequential(1), Seed: 1})
	if _, err := r.exec(0, mop.WriteOp{X: 0, V: 7}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if v, err := r.exec(0, mop.ReadOp{X: 0}); err != nil || v != object.Value(7) {
		t.Fatalf("read = %v, %v", v, err)
	}
	if _, err := r.exec(1, mop.ReadOp{X: 0}); err != nil {
		t.Fatalf("read: %v", err)
	}
	r.verify(t)
}

func TestCausalVerifies(t *testing.T) {
	r := newRecorder(t, Config{Procs: 3, Reg: object.Sequential(3), Seed: 2, MaxDelay: 2 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				var pr mop.Procedure = mop.MultiRead{Xs: []object.ID{0, 1, 2}}
				if j%2 == 0 {
					pr = mop.WriteOp{X: object.ID(j % 3), V: object.Value(i*100 + j + 1)}
				}
				if _, err := r.exec(i, pr); err != nil {
					t.Errorf("P%d: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	r.verify(t)
}

// TestCausalHierarchySeparation hunts for a run that is m-causal but NOT
// m-sequentially consistent — two processes observing concurrent writes
// in opposite orders. This is the E12 hierarchy separation.
func TestCausalHierarchySeparation(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		p, err := New(Config{Procs: 4, Reg: object.Sequential(1), Seed: seed, MaxDelay: 20 * time.Millisecond})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r := &recorder{p: p, reg: object.Sequential(1)}
		// P0 and P1 write x concurrently; P2 and P3 poll and may observe
		// the two writes in opposite orders.
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, err := r.exec(w, mop.WriteOp{X: 0, V: object.Value(w + 1)}); err != nil {
					t.Errorf("write: %v", err)
				}
			}(w)
		}
		for q := 2; q < 4; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					if _, err := r.exec(q, mop.ReadOp{X: 0}); err != nil {
						t.Errorf("read: %v", err)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}(q)
		}
		wg.Wait()
		p.Close()
		sc, err := checker.MSequentiallyConsistent(r.verify(t))
		if err != nil {
			t.Fatalf("MSC: %v", err)
		}
		if !sc.Admissible {
			return
		}
	}
	t.Fatal("no causal-but-not-sequentially-consistent run found in 120 seeds")
}

// TestCausalMultiObjectAtomicity: even the weakest protocol keeps
// m-operations atomic — pairs written together are observed together.
func TestCausalMultiObjectAtomicity(t *testing.T) {
	r := newRecorder(t, Config{Procs: 3, Reg: object.Sequential(2), Seed: 9, MaxDelay: 2 * time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 10; i++ {
			if _, err := r.exec(0, mop.MAssign{Writes: map[object.ID]object.Value{0: object.Value(i), 1: object.Value(i)}}); err != nil {
				t.Errorf("assign: %v", err)
			}
		}
	}()
	for q := 1; q < 3; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := r.exec(q, mop.MultiRead{Xs: []object.ID{0, 1}})
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if vals := res.([]object.Value); vals[0] != vals[1] {
					t.Errorf("torn read under causal: %v", vals)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	r.verify(t)
}

// TestChaosLossyLinks runs the protocol over a lossy, duplicating,
// partitioned network: once retransmission restores exactly-once
// dissemination the history must still be m-causal.
func TestChaosLossyLinks(t *testing.T) {
	heal := 50 * time.Millisecond
	ops := 5
	if testing.Short() {
		heal, ops = 15*time.Millisecond, 3
	}
	r := newRecorder(t, Config{
		Procs: 3, Reg: object.Sequential(3), Seed: 71, MaxDelay: time.Millisecond,
		Faults: &network.Faults{
			DropProb: 0.2, DupProb: 0.05,
			DelaySpikeProb: 0.05, DelaySpike: 2 * time.Millisecond,
			Partitions: []network.Partition{{Side: []int{0}, Start: 0, Heal: heal}},
			RTO:        3 * time.Millisecond,
		},
	})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				var pr mop.Procedure
				switch j % 3 {
				case 0:
					pr = mop.MAssign{Writes: map[object.ID]object.Value{
						object.ID(j % 3): object.Value(100*i + j), object.ID((j + 1) % 3): object.Value(100*i + j + 1),
					}}
				case 1:
					pr = mop.MultiRead{Xs: []object.ID{object.ID(i % 3), object.ID((i + 1) % 3)}}
				default:
					pr = mop.WriteOp{X: object.ID((i + j) % 3), V: object.Value(i*10 + j)}
				}
				if _, err := r.exec(i, pr); err != nil {
					t.Errorf("P%d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// Updates respond locally, so the workload can finish before the
	// first retransmission timer fires.
	testutil.Eventually(t, 10*time.Second, func() bool {
		return r.p.Traffic().Retransmitted > 0
	}, testutil.Source("causal", r.p.Traffic))
	r.verify(t)
	if ns := r.p.Traffic(); ns.Dropped == 0 || ns.Retransmitted == 0 {
		t.Errorf("fault run reported no faults: %+v", ns)
	}
}

// TestSoakRandomWorkloads runs randomized multi-object workloads across
// several seeds through the exact m-causal decider.
func TestSoakRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	for seed := int64(0); seed < 4; seed++ {
		r := newRecorder(t, Config{Procs: 3, Reg: object.Sequential(4), Seed: seed, MaxDelay: time.Millisecond})
		plans := workload.Mix{ReadFrac: 0.4, Span: 2, OpsPerProc: 5}.Plan(3, 4, rand.New(rand.NewSource(seed)))
		var wg sync.WaitGroup
		for pi, plan := range plans {
			wg.Add(1)
			go func(pi int, plan []workload.Op) {
				defer wg.Done()
				for _, op := range plan {
					var pr mop.Procedure = mop.MultiRead{Xs: op.Objs}
					if !op.Query {
						writes := make(map[object.ID]object.Value, len(op.Objs))
						for i, x := range op.Objs {
							writes[x] = op.Vals[i]
						}
						pr = mop.MAssign{Writes: writes}
					}
					if _, err := r.exec(pi, pr); err != nil {
						t.Errorf("seed %d P%d: %v", seed, pi, err)
						return
					}
				}
			}(pi, plan)
		}
		wg.Wait()
		r.verify(t)
	}
}
