package msc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/abcast"
	"moc/internal/mop"
	"moc/internal/network/testutil"
	"moc/internal/object"
)

func newProtocol(t *testing.T, procs int, maxDelay time.Duration) *Protocol {
	t.Helper()
	reg := object.Sequential(4)
	b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: procs, Seed: 42, MaxDelay: maxDelay})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	p, err := New(Config{Procs: procs, Reg: reg, Broadcast: b})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestNewValidation(t *testing.T) {
	reg := object.Sequential(1)
	if _, err := New(Config{Procs: 0, Reg: reg}); err == nil {
		t.Fatal("zero procs accepted")
	}
	if _, err := New(Config{Procs: 1}); err == nil {
		t.Fatal("missing registry/broadcaster accepted")
	}
}

func TestUpdateThenLocalQuery(t *testing.T) {
	p := newProtocol(t, 3, 0)
	rec, err := p.Exec(0, mop.WriteOp{X: 0, V: 7}, mop.ExecOptions{})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if !rec.Update || rec.Seq < 0 {
		t.Fatalf("update record = %+v", rec)
	}
	if rec.TSEnd.Get(0) != rec.TSStart.Get(0)+1 {
		t.Fatalf("version not bumped: %v -> %v", rec.TSStart, rec.TSEnd)
	}
	// The issuer's own query must see its own write (process order).
	q, err := p.Exec(0, mop.ReadOp{X: 0}, mop.ExecOptions{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if q.Update || q.Seq != -1 {
		t.Fatalf("query record = %+v", q)
	}
	if q.Result.(object.Value) != 7 {
		t.Fatalf("query result = %v", q.Result)
	}
	if q.Inv <= rec.Resp {
		t.Fatal("event times not monotone across m-operations of one process")
	}
}

func TestQueryIsPurelyLocal(t *testing.T) {
	// With an enormous broadcast delay, queries still return immediately.
	p := newProtocol(t, 2, 0)
	start := time.Now()
	if _, err := p.Exec(1, mop.ReadOp{X: 0}, mop.ExecOptions{}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("local query took %v", elapsed)
	}
}

func TestAllReplicasConverge(t *testing.T) {
	p := newProtocol(t, 4, time.Millisecond)
	var wg sync.WaitGroup
	for proc := 0; proc < 4; proc++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := p.Exec(proc, mop.WriteOp{X: object.ID(proc % 4), V: object.Value(proc*100 + i)}, mop.ExecOptions{}); err != nil {
					t.Errorf("P%d update %d: %v", proc, i, err)
					return
				}
			}
		}(proc)
	}
	wg.Wait()
	// After quiescing (all updates were delivered at their issuers; other
	// replicas may lag briefly), poll until all timestamps agree. On
	// timeout the helper dumps the broadcast transport counters, so a
	// hung delivery is diagnosable.
	testutil.Eventually(t, 10*time.Second, func() bool {
		ts0 := p.LocalTS(0)
		for proc := 1; proc < 4; proc++ {
			if !p.LocalTS(proc).Equal(ts0) {
				return false
			}
		}
		return ts0.Sum() == 40
	}, testutil.Source("broadcast", p.cfg.Broadcast.NetStats))
}

func TestDCASThroughProtocol(t *testing.T) {
	p := newProtocol(t, 2, time.Millisecond)
	if _, err := p.Exec(0, mop.MAssign{Writes: map[object.ID]object.Value{0: 1, 1: 2}}, mop.ExecOptions{}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	rec, err := p.Exec(1, mop.DCAS{X1: 0, X2: 1, Old1: 1, Old2: 2, New1: 10, New2: 20}, mop.ExecOptions{})
	if err != nil {
		t.Fatalf("DCAS: %v", err)
	}
	if !rec.Result.(bool) {
		t.Fatal("DCAS should succeed after assignment")
	}
	rec2, err := p.Exec(0, mop.DCAS{X1: 0, X2: 1, Old1: 1, Old2: 2, New1: 0, New2: 0}, mop.ExecOptions{})
	if err != nil {
		t.Fatalf("DCAS2: %v", err)
	}
	if rec2.Result.(bool) {
		t.Fatal("stale DCAS should fail")
	}
}

func TestConservativeUpdateClassification(t *testing.T) {
	// A failed CAS writes nothing but MayWrite()==true: it must still be
	// broadcast (Update=true, a delivery sequence assigned) and must not
	// bump any version.
	p := newProtocol(t, 2, 0)
	rec, err := p.Exec(0, mop.CAS{X: 0, Old: 99, New: 1}, mop.ExecOptions{})
	if err != nil {
		t.Fatalf("CAS: %v", err)
	}
	if !rec.Update || rec.Seq < 0 {
		t.Fatalf("conservative update not broadcast: %+v", rec)
	}
	if !rec.TSStart.Equal(rec.TSEnd) {
		t.Fatal("no-write update bumped a version")
	}
}

func TestContractViolationSurfacesToIssuer(t *testing.T) {
	p := newProtocol(t, 2, 0)
	bad := mop.Func{
		Objects: object.NewSet(0),
		Writes:  true,
		Body:    func(txn mop.Txn) any { txn.Write(3, 1); return nil },
	}
	if _, err := p.Exec(0, bad, mop.ExecOptions{}); err == nil {
		t.Fatal("footprint escape not reported")
	}
	// The protocol must remain usable afterwards.
	if _, err := p.Exec(0, mop.WriteOp{X: 0, V: 1}, mop.ExecOptions{}); err != nil {
		t.Fatalf("protocol wedged after violation: %v", err)
	}
}

func TestExecuteValidation(t *testing.T) {
	p := newProtocol(t, 2, 0)
	if _, err := p.Exec(5, mop.ReadOp{X: 0}, mop.ExecOptions{}); err == nil {
		t.Fatal("invalid process accepted")
	}
}

func TestExecuteAfterClose(t *testing.T) {
	reg := object.Sequential(1)
	b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: 1, Seed: 1})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	p, err := New(Config{Procs: 1, Reg: reg, Broadcast: b})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Close()
	if _, err := p.Exec(0, mop.ReadOp{X: 0}, mop.ExecOptions{}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

func TestStaleLocalReadIsPossible(t *testing.T) {
	// The defining behaviour of the Figure 4 protocol: after an update
	// responds at P0, P1's local query may still see the old value. With
	// a long broadcast delay this is virtually guaranteed... except at
	// the issuer, whose response itself waits for delivery. Repeat until
	// observed.
	reg := object.Sequential(1)
	stale := false
	for trial := 0; trial < 40 && !stale; trial++ {
		b, err := abcast.NewSequencer(abcast.SequencerConfig{
			Procs: 2, Seed: int64(trial), MinDelay: 0, MaxDelay: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewSequencer: %v", err)
		}
		p, err := New(Config{Procs: 2, Reg: reg, Broadcast: b})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := p.Exec(0, mop.WriteOp{X: 0, V: 1}, mop.ExecOptions{}); err != nil {
			t.Fatalf("update: %v", err)
		}
		rec, err := p.Exec(1, mop.ReadOp{X: 0}, mop.ExecOptions{})
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if rec.Result.(object.Value) == 0 {
			stale = true
		}
		p.Close()
	}
	if !stale {
		t.Fatal("no stale local read observed in 40 trials — query locality broken?")
	}
}

// failingBroadcast reports every third Broadcast as failed: one of each
// two such updates is dropped, the other is still ordered (a connection
// that broke after the write) and reported late, so its delivery
// usually beats the failure path.
type failingBroadcast struct {
	abcast.Broadcaster
	n atomic.Int64
}

func (f *failingBroadcast) Broadcast(from int, payload any, bytes int) error {
	switch f.n.Add(1) % 6 {
	case 0:
		return errors.New("injected broadcast failure")
	case 3:
		_ = f.Broadcaster.Broadcast(from, payload, bytes)
		time.Sleep(100 * time.Microsecond)
		return errors.New("injected broadcast failure after send")
	}
	return f.Broadcaster.Broadcast(from, payload, bytes)
}

// notHeld reports whether st.mu can be taken within a second. Other
// goroutines hold it only briefly; a caller that ran done under it
// would hold it for as long as done runs.
func notHeld(st *procState) bool {
	deadline := time.Now().Add(time.Second)
	for !st.mu.TryLock() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	st.mu.Unlock()
	return true
}

// TestSubmitCompletesOnce races the four completion paths — the
// delivery loop, a failed Broadcast and Close (the recovery-subsumed
// path shares the delivery loop's arbiter) — against each other: every
// accepted Submit's done runs exactly once and never under st.mu, and a
// refused Submit's never runs.
func TestSubmitCompletesOnce(t *testing.T) {
	const procs, submitters, each = 3, 6, 30
	for round := 0; round < 30; round++ {
		b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: procs, Seed: int64(round)})
		if err != nil {
			t.Fatalf("NewSequencer: %v", err)
		}
		p, err := New(Config{Procs: procs, Reg: object.Sequential(2), Broadcast: &failingBroadcast{Broadcaster: b}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var (
			calls    [submitters * each]atomic.Int32
			accepted [submitters * each]bool
			total    atomic.Int64
			underMu  atomic.Bool
			wg       sync.WaitGroup
		)
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				proc := s % procs
				st := p.states[proc]
				for j := 0; j < each; j++ {
					i := s*each + j
					err := p.Submit(proc, mop.WriteOp{X: object.ID(j % 2), V: object.Value(i)}, mop.ExecOptions{}, func(mop.Record, error) {
						// One report is enough; later calls skip the wait.
						if !underMu.Load() && !notHeld(st) {
							underMu.Store(true)
							t.Errorf("done of update %d ran under st.mu", i)
						}
						calls[i].Add(1)
						total.Add(1)
					})
					accepted[i] = err == nil
				}
			}(s)
		}
		// Close lands while submissions and deliveries are still running.
		for deadline := time.Now().Add(time.Second); total.Load() < int64(round) && time.Now().Before(deadline); {
			time.Sleep(20 * time.Microsecond)
		}
		p.Close()
		wg.Wait()
		for i := range calls {
			want := int32(0)
			if accepted[i] {
				want = 1
			}
			if got := calls[i].Load(); got != want {
				t.Fatalf("round %d: update %d (accepted %v): done ran %d times", round, i, accepted[i], got)
			}
		}
	}
}
