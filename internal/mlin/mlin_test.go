package mlin

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/abcast"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/object"
)

func newProtocol(t *testing.T, procs int, maxDelay time.Duration, relevantOnly bool) *Protocol {
	t.Helper()
	reg := object.Sequential(4)
	b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: procs, Seed: 42, MaxDelay: maxDelay})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	p, err := New(Config{
		Procs: procs, Reg: reg, Broadcast: b,
		Seed: 7, MaxDelay: maxDelay, RelevantOnly: relevantOnly,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestNewValidation(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		t.Run(mode(sequential), func(t *testing.T) {
			reg := object.Sequential(1)
			if _, err := New(Config{Procs: 0, Reg: reg, Sequential: sequential}); err == nil {
				t.Fatal("zero procs accepted")
			}
			if _, err := New(Config{Procs: 1, Sequential: sequential}); err == nil {
				t.Fatal("missing registry/broadcaster accepted")
			}
		})
	}
}

func TestFreshReadAfterRemoteUpdate(t *testing.T) {
	// THE m-linearizability guarantee, and the difference from the m-SC
	// protocol: once an update has responded, every later query — at any
	// process — observes it, regardless of delivery lag. Run many trials
	// with large random delays; a stale read is a protocol bug.
	reg := object.Sequential(1)
	for trial := 0; trial < 25; trial++ {
		b, err := abcast.NewSequencer(abcast.SequencerConfig{
			Procs: 3, Seed: int64(trial), MaxDelay: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewSequencer: %v", err)
		}
		p, err := New(Config{
			Procs: 3, Reg: reg, Broadcast: b,
			Seed: int64(trial) + 100, MaxDelay: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := p.Exec(0, mop.WriteOp{X: 0, V: object.Value(trial + 1)}, mop.ExecOptions{}); err != nil {
			t.Fatalf("update: %v", err)
		}
		rec, err := p.Exec(1, mop.ReadOp{X: 0}, mop.ExecOptions{})
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if got := rec.Result.(object.Value); got != object.Value(trial+1) {
			t.Fatalf("trial %d: stale read %d after responded update %d", trial, got, trial+1)
		}
		p.Close()
	}
}

func TestQueryMergesFreshestVersions(t *testing.T) {
	p := newProtocol(t, 3, time.Millisecond, false)
	if _, err := p.Exec(0, mop.WriteOp{X: 0, V: 5}, mop.ExecOptions{}); err != nil {
		t.Fatalf("w0: %v", err)
	}
	if _, err := p.Exec(1, mop.WriteOp{X: 1, V: 6}, mop.ExecOptions{}); err != nil {
		t.Fatalf("w1: %v", err)
	}
	rec, err := p.Exec(2, mop.MultiRead{Xs: []object.ID{0, 1}}, mop.ExecOptions{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	got := rec.Result.([]object.Value)
	if got[0] != 5 || got[1] != 6 {
		t.Fatalf("merged read = %v", got)
	}
	if rec.TSStart.Get(0) != 1 || rec.TSStart.Get(1) != 1 {
		t.Fatalf("query versions = %v", rec.TSStart)
	}
}

func TestRelevantOnlyModeCorrectAndCheaper(t *testing.T) {
	run := func(relevant bool) (int64, *Protocol) {
		reg := object.Sequential(64)
		b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: 3, Seed: 5})
		if err != nil {
			t.Fatalf("NewSequencer: %v", err)
		}
		p, err := New(Config{Procs: 3, Reg: reg, Broadcast: b, Seed: 6, RelevantOnly: relevant})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(p.Close)
		if _, err := p.Exec(0, mop.WriteOp{X: 7, V: 1}, mop.ExecOptions{}); err != nil {
			t.Fatalf("update: %v", err)
		}
		for i := 0; i < 10; i++ {
			rec, err := p.Exec(1, mop.ReadOp{X: 7}, mop.ExecOptions{})
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			if rec.Result.(object.Value) != 1 {
				t.Fatalf("wrong value in relevant=%v mode", relevant)
			}
		}
		return p.QueryTraffic().Bytes, p
	}
	fullBytes, _ := run(false)
	relBytes, _ := run(true)
	if relBytes >= fullBytes {
		t.Fatalf("relevant-only (%d B) should be cheaper than full copies (%d B)", relBytes, fullBytes)
	}
}

func TestQueryTrafficAccounted(t *testing.T) {
	p := newProtocol(t, 3, 0, false)
	if _, err := p.Exec(0, mop.ReadOp{X: 0}, mop.ExecOptions{}); err != nil {
		t.Fatalf("query: %v", err)
	}
	st := p.QueryTraffic()
	// 3 query messages + 3 responses.
	if st.Messages != 6 {
		t.Fatalf("messages = %d, want 6", st.Messages)
	}
	if st.ByKind["mlin.query"].Messages != 3 || st.ByKind["mlin.qresp"].Messages != 3 {
		t.Fatalf("per-kind = %+v", st.ByKind)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	p := newProtocol(t, 4, time.Millisecond, false)
	var wg sync.WaitGroup
	for proc := 0; proc < 4; proc++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var err error
				if i%2 == 0 {
					_, err = p.Exec(proc, mop.WriteOp{X: object.ID(i % 4), V: object.Value(proc*1000 + i)}, mop.ExecOptions{})
				} else {
					_, err = p.Exec(proc, mop.MultiRead{Xs: []object.ID{0, 1, 2, 3}}, mop.ExecOptions{})
				}
				if err != nil {
					t.Errorf("P%d op %d: %v", proc, i, err)
					return
				}
			}
		}(proc)
	}
	wg.Wait()
}

// TestUpdatePathMatchesMSC: Figures 4 and 6 share the update actions
// A1–A2, so the same write on a fresh m-lin replica and a fresh
// Sequential one is sequenced and applied alike, and both account its
// broadcast.
func TestUpdatePathMatchesMSC(t *testing.T) {
	var recs []mop.Record
	for _, p := range []*Protocol{newProtocol(t, 2, 0, false), newSequential(t, 2, 0)} {
		sequential := p.cfg.Sequential
		rec, err := p.Exec(0, mop.WriteOp{X: 2, V: 9}, mop.ExecOptions{})
		if err != nil {
			t.Fatalf("%s update: %v", mode(sequential), err)
		}
		if !rec.Update || rec.Seq < 0 || rec.TSEnd.Get(2) != 1 {
			t.Fatalf("%s update record = %+v", mode(sequential), rec)
		}
		if cost, _ := p.BroadcastTraffic(); cost == 0 {
			t.Fatalf("%s broadcast traffic unaccounted", mode(sequential))
		}
		recs = append(recs, rec)
	}
	if recs[0].Seq != recs[1].Seq || !recs[0].TSStart.Equal(recs[1].TSStart) || !recs[0].TSEnd.Equal(recs[1].TSEnd) {
		t.Fatalf("update paths differ: mlin %+v, sequential %+v", recs[0], recs[1])
	}
}

func TestContractViolationInQuery(t *testing.T) {
	p := newProtocol(t, 2, 0, false)
	bad := mop.Func{
		Objects: object.NewSet(0),
		Writes:  false,
		Body:    func(txn mop.Txn) any { return txn.Read(3) },
	}
	if _, err := p.Exec(0, bad, mop.ExecOptions{}); err == nil {
		t.Fatal("footprint escape in query not reported")
	}
	// Protocol must stay usable; the pending query state must have been
	// cleaned up.
	if _, err := p.Exec(0, mop.ReadOp{X: 0}, mop.ExecOptions{}); err != nil {
		t.Fatalf("protocol wedged: %v", err)
	}
}

func TestExecuteValidationAndClose(t *testing.T) {
	reg := object.Sequential(1)
	b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: 1, Seed: 1})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	p, err := New(Config{Procs: 1, Reg: reg, Broadcast: b, Seed: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := p.Exec(9, mop.ReadOp{X: 0}, mop.ExecOptions{}); err == nil {
		t.Fatal("invalid process accepted")
	}
	if _, err := p.Exec(0, mop.ReadOp{X: 0}, mop.ExecOptions{Level: history.LevelQuorum}); err != nil {
		t.Fatalf("QUORUM query: %v", err)
	}
	p.Close()
	if _, err := p.Exec(0, mop.ReadOp{X: 0}, mop.ExecOptions{}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

func mode(sequential bool) string {
	if sequential {
		return "sequential"
	}
	return "mlin"
}

func TestLocalTSInstrumentation(t *testing.T) {
	p := newProtocol(t, 2, 0, false)
	if _, err := p.Exec(0, mop.WriteOp{X: 1, V: 3}, mop.ExecOptions{}); err != nil {
		t.Fatalf("update: %v", err)
	}
	ts := p.LocalTS(0)
	if ts.Get(1) != 1 {
		t.Fatalf("LocalTS = %v", ts)
	}
}

// failingBroadcast reports every third Broadcast as failed: one of each
// two such updates is dropped, the other is still ordered (a connection
// that broke after the write) and reported late, so its write quorum
// usually completes before the failure path runs.
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
		time.Sleep(3 * time.Millisecond)
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

// TestMLinSubmitCompletesOnce races the completion paths against each
// other: an update's write quorum decided by the issuer's apply on the
// delivery loop or by a peer's ack on the message loop, a broadcaster
// that fails every third call, strong queries settled by responses or
// by their bounded deadline, and Close. Every accepted Submit's done
// runs exactly once and never under st.mu, and a refused Submit's never
// runs. The Sequential replica races the same paths minus the write
// phase and the query round: its updates complete at the issuer's apply
// and its queries on the caller.
func TestMLinSubmitCompletesOnce(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		t.Run(mode(sequential), func(t *testing.T) { testSubmitCompletesOnce(t, sequential) })
	}
}

func testSubmitCompletesOnce(t *testing.T, sequential bool) {
	const procs, submitters, each = 3, 6, 24
	levels := []history.Level{history.LevelOne, history.LevelQuorum, history.LevelAll}
	if sequential {
		levels = []history.Level{history.LevelOne, history.LevelDefault}
	}
	for round := 0; round < 15; round++ {
		// Random ordering delays and instant acks: whichever replica
		// applies last decides the write quorum, so both loops do.
		b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: procs, Seed: int64(round), MaxDelay: 400 * time.Microsecond})
		if err != nil {
			t.Fatalf("NewSequencer: %v", err)
		}
		p, err := New(Config{
			Procs: procs, Reg: object.Sequential(2), Broadcast: &failingBroadcast{Broadcaster: b},
			Sequential: sequential,
			Seed:       int64(round), QueryTimeout: time.Millisecond, QueryRetries: 1,
			// Process 2's query endpoint is down: it never acks or
			// answers, so ALL queries run into their deadlines, its own
			// updates wait for Close, and its strong queries force-complete.
			Faults: &network.Faults{Crashes: []network.Crash{{Proc: 2}}},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var (
			calls    [submitters * each]atomic.Int32
			accepted [submitters * each]bool
			total    atomic.Int64
			updates  atomic.Int64 // completed without error
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
					var op mop.Procedure = mop.WriteOp{X: object.ID(j % 2), V: object.Value(i)}
					var opts mop.ExecOptions
					if j%2 == 1 {
						op, opts.Level = mop.ReadOp{X: object.ID(j % 2)}, levels[j/2%len(levels)]
					}
					err := p.Submit(proc, 0, op, opts, func(rec mop.Record, err error) {
						// One report is enough; later calls skip the wait.
						if !underMu.Load() && !notHeld(st) {
							underMu.Store(true)
							t.Errorf("done of operation %d ran under st.mu", i)
						}
						if rec.Update && err == nil {
							updates.Add(1)
						}
						calls[i].Add(1)
						total.Add(1)
					})
					accepted[i] = err == nil
				}
			}(s)
		}
		// Close lands while submissions, deliveries and deadlines are
		// still running: from at once to after most updates completed.
		for deadline := time.Now().Add(time.Second); updates.Load() < int64(2*round) && time.Now().Before(deadline); {
			time.Sleep(20 * time.Microsecond)
		}
		p.Close()
		wg.Wait()
		// A deadline that released its query before Close swept may
		// still be responding.
		want := 0
		for _, ok := range accepted {
			if ok {
				want++
			}
		}
		for deadline := time.Now().Add(5 * time.Second); total.Load() < int64(want) && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		for i := range calls {
			want := int32(0)
			if accepted[i] {
				want = 1
			}
			if got := calls[i].Load(); got != want {
				t.Fatalf("round %d: operation %d (accepted %v): done ran %d times", round, i, accepted[i], got)
			}
		}
	}
}
