package oolock

// Whole-run tests: each records a concurrent workload the way a
// core.Store records its own, rebuilds the history with core.BuildHistory
// and checks it with the OO branch of Theorem 7 (core.VerifyOO), the
// exact m-linearizability decider, the P5.x axioms and the streaming
// monitor.

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"moc/internal/checker"
	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/monitor"
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

// verify checks the quiescent run with Theorem 7's OO branch and
// cross-checks the verdict with the exact decider.
func (r *recorder) verify(t *testing.T) core.VerifyResult {
	t.Helper()
	r.mu.Lock()
	recs := append([]mop.Record(nil), r.recs...)
	r.mu.Unlock()
	res, err := core.VerifyOO(r.reg, recs, history.MLinearizableBase)
	if err != nil {
		t.Fatalf("VerifyOO: %v", err)
	}
	if !res.OK {
		t.Fatal("locking protocol produced a non-m-linearizable history")
	}
	exact, err := checker.MLinearizable(res.History)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	if !exact.Admissible {
		t.Fatal("exact decider disagrees with OO Theorem 7 verification")
	}
	return res
}

// checkMonitor replays the records in response order through the axiom
// validator and the streaming monitor at m-lin level.
func (r *recorder) checkMonitor(t *testing.T) {
	t.Helper()
	recs := append([]mop.Record(nil), r.recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Resp < recs[j].Resp })
	if v := monitor.ValidateAxioms(recs, r.reg.Len(), monitor.MLinLevel); len(v) != 0 {
		t.Fatalf("axiom violations on a locking run: %v", v)
	}
	m := monitor.NewMonitor(r.reg.Len(), monitor.MLinLevel)
	for _, rec := range recs {
		m.Observe(rec)
	}
	if v := m.Finish(); len(v) != 0 {
		t.Fatalf("monitor violations: %v", v)
	}
}

// runPlans has every process execute its workload plan concurrently.
func (r *recorder) runPlans(t *testing.T, plans [][]workload.Op) {
	t.Helper()
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
					t.Errorf("P%d: %v", pi, err)
					return
				}
			}
		}(pi, plan)
	}
	wg.Wait()
}

func TestLockingBasics(t *testing.T) {
	r := newRecorder(t, Config{Procs: 2, Reg: object.Sequential(2), Seed: 1})
	if _, err := r.exec(0, mop.MAssign{Writes: map[object.ID]object.Value{0: 1, 1: 2}}); err != nil {
		t.Fatalf("MAssign: %v", err)
	}
	ok, err := r.exec(1, mop.DCAS{X1: 0, X2: 1, Old1: 1, Old2: 2, New1: 10, New2: 20})
	if err != nil || !ok.(bool) {
		t.Fatalf("DCAS = %v, %v", ok, err)
	}
	vals, err := r.exec(0, mop.MultiRead{Xs: []object.ID{0, 1}})
	if err != nil || vals.([]object.Value)[0] != 10 || vals.([]object.Value)[1] != 20 {
		t.Fatalf("MultiRead = %v, %v", vals, err)
	}
	if r.p.Traffic().Messages == 0 {
		t.Fatal("locking traffic unaccounted")
	}
	r.verify(t)
}

// TestWriteReadVerifies is the smallest run: one write, one read at
// another process. It verifies, and OO Theorem 7 agrees with the exact
// decider.
func TestWriteReadVerifies(t *testing.T) {
	r := newRecorder(t, Config{Procs: 2, Reg: object.Sequential(1), Seed: 41})
	if _, err := r.exec(0, mop.WriteOp{X: 0, V: 3}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if v, err := r.exec(1, mop.ReadOp{X: 0}); err != nil || v != object.Value(3) {
		t.Fatalf("read = %v, %v", v, err)
	}
	r.verify(t)
}

func TestLockingVerifiesOOTheorem7(t *testing.T) {
	r := newRecorder(t, Config{Procs: 4, Reg: object.Sequential(3), Seed: 2, MaxDelay: time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
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

func TestLockingAxiomsAndMonitor(t *testing.T) {
	r := newRecorder(t, Config{Procs: 3, Reg: object.Sequential(3), Seed: 3, MaxDelay: time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := r.exec(i, mop.WriteOp{X: object.ID((i + j) % 3), V: object.Value(i*10 + j + 1)}); err != nil {
					t.Errorf("write: %v", err)
				}
				if _, err := r.exec(i, mop.Sum{Xs: []object.ID{0, 1}}); err != nil {
					t.Errorf("sum: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	r.checkMonitor(t)
}

// TestLockingDisjointConcurrency: the OO-constraint's selling point is
// that updates on disjoint objects are not globally synchronized. Heavy
// disjoint traffic must still be m-linearizable.
func TestLockingDisjointConcurrency(t *testing.T) {
	r := newRecorder(t, Config{Procs: 2, Reg: object.Sequential(2), Seed: 4})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := r.exec(w, mop.WriteOp{X: object.ID(w), V: object.Value(i + 1)}); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	r.verify(t)
}

func TestLockingTransferConservation(t *testing.T) {
	r := newRecorder(t, Config{Procs: 3, Reg: object.Sequential(3), Seed: 5, MaxDelay: time.Millisecond})
	if _, err := r.exec(0, mop.MAssign{Writes: map[object.ID]object.Value{0: 100, 1: 100, 2: 100}}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				from, to := object.ID((i+j)%3), object.ID((i+j+1)%3)
				if _, err := r.exec(i, mop.Transfer{From: from, To: to, Amount: object.Value(1 + j%5)}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
				total, err := r.exec(i, mop.Sum{Xs: []object.ID{0, 1, 2}})
				if err != nil {
					t.Errorf("sum: %v", err)
					return
				}
				if total != object.Value(300) {
					t.Errorf("conservation violated: %d", total)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	r.verify(t)
}

// TestHotContentionWorkload drives a skewed (hot-set) mix — the
// adversarial case for per-object locking — and verifies correctness is
// unaffected.
func TestHotContentionWorkload(t *testing.T) {
	r := newRecorder(t, Config{Procs: 4, Reg: object.Sequential(6), Seed: 33})
	mix := workload.Mix{ReadFrac: 0.3, Span: 2, OpsPerProc: 8, HotFrac: 0.8, HotObjects: 2}
	r.runPlans(t, mix.Plan(4, 6, rand.New(rand.NewSource(33))))
	r.verify(t)
}

// TestChaosLossyLinks runs the protocol over a lossy, duplicating,
// partitioned network: once retransmission restores exactly-once links
// the history must still pass the exact m-lin decider and OO Theorem 7.
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
	testutil.Eventually(t, 10*time.Second, func() bool {
		return r.p.Traffic().Retransmitted > 0
	}, testutil.Source("oolock", r.p.Traffic))
	r.verify(t)
	if ns := r.p.Traffic(); ns.Dropped == 0 || ns.Retransmitted == 0 {
		t.Errorf("fault run reported no faults: %+v", ns)
	}
}

// TestSoakRandomWorkloads runs randomized multi-object workloads across
// several seeds: OO Theorem 7, the exact decider, the consistency
// hierarchy (m-lin implies m-causal), the axioms and the monitor.
func TestSoakRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	for seed := int64(0); seed < 4; seed++ {
		r := newRecorder(t, Config{Procs: 3, Reg: object.Sequential(4), Seed: seed, MaxDelay: time.Millisecond})
		mix := workload.Mix{ReadFrac: 0.4, Span: 2, OpsPerProc: 5}
		r.runPlans(t, mix.Plan(3, 4, rand.New(rand.NewSource(seed))))
		res := r.verify(t)
		causal, err := checker.MCausallyConsistent(res.History)
		if err != nil {
			t.Fatalf("seed %d: causal: %v", seed, err)
		}
		if !causal.Consistent {
			t.Fatalf("seed %d: hierarchy violated: m-lin-verified but not m-causal", seed)
		}
		r.checkMonitor(t)
	}
}

// TestStressEightProcesses scales the protocol to 8 processes × 24
// m-operations under randomized delays and verifies the result with the
// polynomial procedure alone (the exact decider would be too slow at
// this size — which is itself the paper's point).
func TestStressEightProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	const procs = 8
	r := newRecorder(t, Config{Procs: procs, Reg: object.Sequential(6), Seed: 77, MaxDelay: 500 * time.Microsecond})
	var wg sync.WaitGroup
	for pi := 0; pi < procs; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			for j := 0; j < 24; j++ {
				var pr mop.Procedure
				switch j % 3 {
				case 0:
					pr = mop.MAssign{Writes: map[object.ID]object.Value{
						object.ID((pi + j) % 6):     object.Value(pi*1000 + j + 1),
						object.ID((pi + j + 1) % 6): object.Value(pi*1000 + j + 500),
					}}
				case 1:
					pr = mop.MultiRead{Xs: []object.ID{object.ID(j % 6), object.ID((j + 2) % 6)}}
				default:
					pr = mop.CAS{X: object.ID(j % 6), Old: 0, New: object.Value(pi*1000 + j + 900)}
				}
				if _, err := r.exec(pi, pr); err != nil {
					t.Errorf("P%d: %v", pi, err)
					return
				}
			}
		}(pi)
	}
	wg.Wait()
	res, err := core.VerifyOO(r.reg, r.recs, history.MLinearizableBase)
	if err != nil || !res.OK {
		t.Fatalf("VerifyOO = %+v, %v", res, err)
	}
	if got := res.History.Len() - 1; got != procs*24 {
		t.Fatalf("recorded %d m-operations, want %d", got, procs*24)
	}
}
