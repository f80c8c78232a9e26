package mlin

// Tests of the Figure 4 replica (Config.Sequential): local queries, no
// query network, and updates that respond at the issuer's own apply.

import (
	"sync"
	"testing"
	"time"

	"moc/internal/abcast"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/network/testutil"
	"moc/internal/object"
)

func newSequential(t *testing.T, procs int, maxDelay time.Duration) *Protocol {
	t.Helper()
	b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: procs, Seed: 42, MaxDelay: maxDelay})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	p, err := New(Config{Procs: procs, Reg: object.Sequential(4), Broadcast: b, Sequential: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestUpdateThenLocalQuery(t *testing.T) {
	p := newSequential(t, 3, 0)
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
	if cost, _ := p.BroadcastTraffic(); cost == 0 {
		t.Fatal("broadcast traffic unaccounted")
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

// TestQueryIsPurelyLocal: with a slow broadcast a query still returns at
// once, builds no query channel and sends nothing.
func TestQueryIsPurelyLocal(t *testing.T) {
	var (
		mu       sync.Mutex
		channels []string
	)
	links := network.Factory(func(name string, cfg network.Config) (network.Link, error) {
		mu.Lock()
		channels = append(channels, name)
		mu.Unlock()
		return network.NewLink(cfg)
	})
	b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: 2, Seed: 1, MinDelay: time.Second, MaxDelay: time.Second, Links: links})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	p, err := New(Config{Procs: 2, Reg: object.Sequential(1), Broadcast: b, Links: links, Sequential: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	start := time.Now()
	if _, err := p.Exec(1, mop.ReadOp{X: 0}, mop.ExecOptions{}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("local query took %v", elapsed)
	}
	if st := p.QueryTraffic(); st.Messages != 0 || len(st.ByKind) != 0 {
		t.Fatalf("query traffic = %+v, want none", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(channels) == 0 {
		t.Fatal("links factory recorded no channel: the broadcaster's is missing")
	}
	for _, name := range channels {
		if name == "mlin.query" {
			t.Fatalf("Sequential replica built the query channel (channels %v)", channels)
		}
	}
}

func TestAllReplicasConverge(t *testing.T) {
	p := newSequential(t, 4, time.Millisecond)
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
	p := newSequential(t, 2, time.Millisecond)
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
	p := newSequential(t, 2, 0)
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
	p := newSequential(t, 2, 0)
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
	p := newSequential(t, 2, 0)
	if _, err := p.Exec(5, mop.ReadOp{X: 0}, mop.ExecOptions{}); err == nil {
		t.Fatal("invalid process accepted")
	}
	// Figure 4 has no query round: stronger levels are refused, not
	// answered locally.
	for _, lvl := range []history.Level{history.LevelQuorum, history.LevelAll} {
		if _, err := p.Exec(0, mop.ReadOp{X: 0}, mop.ExecOptions{Level: lvl}); err == nil {
			t.Fatalf("%v query accepted", lvl)
		}
	}
}

func TestExecuteAfterClose(t *testing.T) {
	reg := object.Sequential(1)
	b, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: 1, Seed: 1})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	p, err := New(Config{Procs: 1, Reg: reg, Broadcast: b, Sequential: true})
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
		p, err := New(Config{Procs: 2, Reg: reg, Broadcast: b, Sequential: true})
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
