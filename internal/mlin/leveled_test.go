package mlin_test

// Leveled-query tests: per-request consistency levels against the
// Figure 6 protocol, including a peer killed mid-query. These live in
// an external test package so the recorded executions can be rebuilt
// into histories (internal/core) and validated with the composed
// leveled checker (internal/checker) without an import cycle.

import (
	"slices"
	"sync"
	"testing"
	"time"

	"moc/internal/abcast"
	"moc/internal/checker"
	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/mlin"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/object"
)

// recordLog collects the records of one test execution for rebuilding.
type recordLog struct {
	mu   sync.Mutex
	recs []mop.Record
}

func (l *recordLog) add(rec mop.Record) {
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
}

func (l *recordLog) all() []mop.Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]mop.Record(nil), l.recs...)
}

// mustMixedConsistent rebuilds the history and runs the leveled checker.
func mustMixedConsistent(t *testing.T, reg *object.Registry, recs []mop.Record) {
	t.Helper()
	h, _, err := core.BuildHistory(reg, recs)
	if err != nil {
		t.Fatalf("BuildHistory: %v", err)
	}
	res, err := checker.MixedLevels(h)
	if err != nil {
		t.Fatalf("MixedLevels: %v", err)
	}
	if !res.Full.Admissible {
		t.Fatal("mixed-level history is not m-sequentially consistent")
	}
	if !res.Consistent {
		t.Fatal("strong subset of the mixed-level history is not m-linearizable")
	}
}

// TestQuorumCompletesWithPeerKilledMidQuery kills one peer's query
// endpoint while a stream of QUORUM queries is in flight — once the
// sequencer's process, once a plain peer — and requires every query to
// complete with a certified majority, fresh values, and a merged
// history the leveled checker accepts. ALL queries after the kill can
// only force-complete partially, and must be certified down honestly.
//
// This is also the simulated half of the QUORUM-vs-ALL trade: the dead
// peer costs a QUORUM query nothing (median below one query timeout),
// while the ALL query waits out every round of its timeout budget,
// QueryTimeout·(1+QueryRetries). Both bounds are deterministic; the TCP
// half, with a slow rather than a dead peer, is chaos.TestSlowPeerLevels.
func TestQuorumCompletesWithPeerKilledMidQuery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		victim int
	}{
		{"sequencer-peer", 0},
		{"plain-peer", 2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const (
				procs        = 3
				issuer       = 1
				killAt       = 60 * time.Millisecond
				queryTimeout = 150 * time.Millisecond
				queryRetries = 1
			)
			reg := object.Sequential(4)
			b, err := abcast.NewSequencer(abcast.SequencerConfig{
				Procs: procs, Seed: 42, MaxDelay: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("NewSequencer: %v", err)
			}
			p, err := mlin.New(mlin.Config{
				Procs: procs, Reg: reg, Broadcast: b,
				Seed: 7, MaxDelay: 2 * time.Millisecond,
				QueryTimeout: queryTimeout, QueryRetries: queryRetries,
				Faults: &network.Faults{Crashes: []network.Crash{{Proc: tc.victim, At: killAt}}},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer p.Close()

			log := &recordLog{}
			// Seed every object, then wait until every replica applied the
			// updates: the kill only severs the victim's query endpoint
			// (the broadcast plane is a separate network), so from here on
			// every response any replica ever gives is fresh — the merged
			// history stays m-linearizable no matter which majority answers.
			for x := 0; x < reg.Len(); x++ {
				rec, err := p.Exec(issuer, mop.WriteOp{X: object.ID(x), V: object.Value(100 + x)}, mop.ExecOptions{})
				if err != nil {
					t.Fatalf("seed write %d: %v", x, err)
				}
				log.add(rec)
			}
			deadline := time.Now().Add(5 * time.Second)
			for q := 0; q < procs; q++ {
				for {
					ts := p.LocalTS(q)
					done := true
					for x := 0; x < reg.Len(); x++ {
						if ts.Get(object.ID(x)) < 1 {
							done = false
						}
					}
					if done {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("replica %d never applied the seed updates", q)
					}
					time.Sleep(time.Millisecond)
				}
			}

			// QUORUM queries straddling the kill: before, during, after.
			var quorumLat []time.Duration
			start := time.Now()
			for i := 0; time.Since(start) < killAt*2; i++ {
				qStart := time.Now()
				rec, err := p.Exec(issuer, mop.MultiRead{Xs: []object.ID{0, 1, 2, 3}},
					mop.ExecOptions{Level: history.LevelQuorum})
				quorumLat = append(quorumLat, time.Since(qStart))
				if err != nil {
					t.Fatalf("quorum query %d: %v", i, err)
				}
				if rec.Level != history.LevelQuorum || !rec.IsConsistent {
					t.Fatalf("quorum query %d certified (%s, %v), want (quorum, true)",
						i, rec.Level, rec.IsConsistent)
				}
				if len(rec.Responders) < 2 {
					t.Fatalf("quorum query %d had responders %v, want a majority", i, rec.Responders)
				}
				vals := rec.Result.([]object.Value)
				for x, v := range vals {
					if v != object.Value(100+x) {
						t.Fatalf("quorum query %d read x%d = %d, want %d", i, x, v, 100+x)
					}
				}
				log.add(rec)
				time.Sleep(5 * time.Millisecond)
			}
			slices.Sort(quorumLat)
			if med := quorumLat[len(quorumLat)/2]; med >= queryTimeout {
				t.Fatalf("quorum median %v over %d queries is not below the %v query timeout: the dead peer held quorum queries up",
					med, len(quorumLat), queryTimeout)
			}

			// After the kill an ALL query cannot gather every process: it
			// force-completes at the timeout and must certify itself down
			// to the majority it actually got.
			allStart := time.Now()
			rec, err := p.Exec(issuer, mop.ReadOp{X: 0}, mop.ExecOptions{Level: history.LevelAll})
			allLat := time.Since(allStart)
			if err != nil {
				t.Fatalf("all query after kill: %v", err)
			}
			if budget := queryTimeout * (1 + queryRetries); allLat < budget {
				t.Fatalf("all query after kill took %v, under its %v timeout budget: it cannot have waited for the dead peer",
					allLat, budget)
			}
			if rec.Level != history.LevelQuorum || rec.IsConsistent {
				t.Fatalf("all query after kill certified (%s, %v), want (quorum, false)",
					rec.Level, rec.IsConsistent)
			}
			for _, q := range rec.Responders {
				if q == tc.victim {
					t.Fatalf("dead peer %d listed among responders %v", tc.victim, rec.Responders)
				}
			}
			log.add(rec)

			// A ONE read still serves locally, instantly.
			rec, err = p.Exec(issuer, mop.ReadOp{X: 1}, mop.ExecOptions{Level: history.LevelOne})
			if err != nil {
				t.Fatalf("one query after kill: %v", err)
			}
			if rec.Level != history.LevelOne || !rec.IsConsistent {
				t.Fatalf("one query certified (%s, %v), want (one, true)", rec.Level, rec.IsConsistent)
			}
			log.add(rec)

			mustMixedConsistent(t, reg, log.all())
		})
	}
}

// TestOneLevelHistoryPassesMSC runs a concurrent multi-writer workload
// whose queries all use ONE and checks the recorded history against
// exact m-sequential consistency — the guarantee ONE degrades to.
func TestOneLevelHistoryPassesMSC(t *testing.T) {
	t.Parallel()
	const procs = 3
	reg := object.Sequential(2)
	b, err := abcast.NewSequencer(abcast.SequencerConfig{
		Procs: procs, Seed: 5, MaxDelay: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	p, err := mlin.New(mlin.Config{
		Procs: procs, Reg: reg, Broadcast: b,
		Seed: 9, MaxDelay: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	log := &recordLog{}
	var wg sync.WaitGroup
	errCh := make(chan error, procs)
	for proc := 0; proc < procs; proc++ {
		proc := proc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				rec, err := p.Exec(proc, mop.WriteOp{
					X: object.ID(i % reg.Len()), V: object.Value(1 + proc*100 + i),
				}, mop.ExecOptions{})
				if err != nil {
					errCh <- err
					return
				}
				log.add(rec)
				rec, err = p.Exec(proc, mop.MultiRead{Xs: []object.ID{0, 1}},
					mop.ExecOptions{Level: history.LevelOne})
				if err != nil {
					errCh <- err
					return
				}
				if rec.Level != history.LevelOne {
					errCh <- err
					return
				}
				log.add(rec)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("workload: %v", err)
	default:
	}

	h, _, err := core.BuildHistory(reg, log.all())
	if err != nil {
		t.Fatalf("BuildHistory: %v", err)
	}
	res, err := checker.MSequentiallyConsistent(h)
	if err != nil {
		t.Fatalf("MSequentiallyConsistent: %v", err)
	}
	if !res.Admissible {
		t.Fatal("ONE-level history is not m-sequentially consistent")
	}
	// The composed checker agrees: the strong subset here is the updates
	// alone, which the broadcast totally orders.
	mixed, err := checker.MixedLevels(h)
	if err != nil {
		t.Fatalf("MixedLevels: %v", err)
	}
	if !mixed.Consistent {
		t.Fatal("update-only strong subset is not m-linearizable")
	}
}

// TestSessionFloorKeepsMixedReadsMonotonic interleaves strong and ONE
// reads at one process while another writes a monotonically increasing
// counter: a ONE read issued after a strong read must never observe an
// older value — the session floor at work. Without it the full history
// would not be m-sequentially consistent.
func TestSessionFloorKeepsMixedReadsMonotonic(t *testing.T) {
	t.Parallel()
	const procs = 3
	reg := object.Sequential(1)
	b, err := abcast.NewSequencer(abcast.SequencerConfig{
		Procs: procs, Seed: 21, MaxDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	p, err := mlin.New(mlin.Config{
		Procs: procs, Reg: reg, Broadcast: b,
		Seed: 23, MaxDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	log := &recordLog{}
	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := object.Value(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			rec, err := p.Exec(0, mop.WriteOp{X: 0, V: v}, mop.ExecOptions{})
			if err != nil {
				writerErr = err
				return
			}
			log.add(rec)
		}
	}()

	for i := 0; i < 40; i++ {
		strong, err := p.Exec(1, mop.ReadOp{X: 0}, mop.ExecOptions{Level: history.LevelQuorum})
		if err != nil {
			t.Fatalf("strong read %d: %v", i, err)
		}
		log.add(strong)
		weak, err := p.Exec(1, mop.ReadOp{X: 0}, mop.ExecOptions{Level: history.LevelOne})
		if err != nil {
			t.Fatalf("one read %d: %v", i, err)
		}
		log.add(weak)
		if weak.Result.(object.Value) < strong.Result.(object.Value) {
			t.Fatalf("session floor breached: strong read saw %d, later ONE read saw %d",
				strong.Result.(object.Value), weak.Result.(object.Value))
		}
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}

	mustMixedConsistent(t, reg, log.all())
}
