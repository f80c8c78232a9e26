package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"moc/internal/abcast"
	"moc/internal/checker"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/object"
	"moc/internal/transport"
)

func newStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Objects == nil {
		cfg.Objects = []string{"x", "y", "z"}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Procs: 0, Objects: []string{"x"}}); err == nil {
		t.Fatal("zero procs accepted")
	}
	if _, err := New(Config{Procs: 1, Objects: []string{"x", "x"}}); err == nil {
		t.Fatal("duplicate objects accepted")
	}
	// 3 and 4 were the locking and causal modes, which are standalone
	// protocols now: a stale caller must fail loudly, not silently get
	// a different store.
	for _, c := range []Consistency{3, 4, 9} {
		_, err := New(Config{Procs: 1, Objects: []string{"x"}, Consistency: c})
		if err == nil || !strings.Contains(err.Error(), "unknown consistency") {
			t.Fatalf("Consistency(%d): err = %v, want unknown consistency", int(c), err)
		}
	}
	if _, err := New(Config{Procs: 1, Objects: []string{"x"}, Broadcast: BroadcastKind(9)}); err == nil {
		t.Fatal("unknown broadcast accepted")
	}
	// Only the sequencer fails over: crash handling on another orderer
	// must be refused, not run without it.
	crash := &network.Faults{Crashes: []network.Crash{{Proc: 1, At: time.Second}}}
	for name, cfg := range map[string]Config{
		"lamport+FD":     {Broadcast: LamportBroadcast, FD: &abcast.FDConfig{}},
		"token+crashes":  {Broadcast: TokenBroadcast, Faults: crash},
		"token+Recovery": {Broadcast: TokenBroadcast, Recovery: true},
	} {
		cfg.Procs, cfg.Objects = 3, []string{"x"}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "SequencerBroadcast") {
			t.Fatalf("%s: err = %v, want a SequencerBroadcast requirement", name, err)
		}
	}
	// Crash-free fault injection still runs on every orderer.
	s, err := New(Config{Procs: 3, Objects: []string{"x"}, Broadcast: LamportBroadcast,
		Faults: &network.Faults{DropProb: 0.1, DupProb: 0.1}})
	if err != nil {
		t.Fatalf("lamport with drop/dup faults rejected: %v", err)
	}
	s.Close()
}

func TestBasicReadWrite(t *testing.T) {
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		t.Run(cons.String(), func(t *testing.T) {
			s := newStore(t, Config{Procs: 2, Consistency: cons, Seed: 1})
			x, err := s.Object("x")
			if err != nil {
				t.Fatalf("Object: %v", err)
			}
			p0, err := s.Process(0)
			if err != nil {
				t.Fatalf("Process: %v", err)
			}
			if err := p0.Write(x, 42); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := p0.Read(x)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if got != 42 {
				t.Fatalf("Read = %d, want 42", got)
			}
		})
	}
}

func TestObjectAndProcessValidation(t *testing.T) {
	s := newStore(t, Config{Procs: 1, Seed: 2})
	if _, err := s.Object("nope"); err == nil {
		t.Fatal("unknown object accepted")
	}
	if _, err := s.Process(5); err == nil {
		t.Fatal("invalid process accepted")
	}
	if s.Procs() != 1 {
		t.Fatalf("Procs = %d", s.Procs())
	}
}

func TestConvenienceOperations(t *testing.T) {
	s := newStore(t, Config{Procs: 1, Seed: 3})
	p, _ := s.Process(0)
	x, _ := s.Object("x")
	y, _ := s.Object("y")

	if err := p.MAssign(map[object.ID]object.Value{x: 10, y: 20}); err != nil {
		t.Fatalf("MAssign: %v", err)
	}
	vals, err := p.MultiRead(x, y)
	if err != nil || vals[0] != 10 || vals[1] != 20 {
		t.Fatalf("MultiRead = %v, %v", vals, err)
	}
	sum, err := p.Sum(x, y)
	if err != nil || sum != 30 {
		t.Fatalf("Sum = %d, %v", sum, err)
	}
	ok, err := p.CAS(x, 10, 11)
	if err != nil || !ok {
		t.Fatalf("CAS = %v, %v", ok, err)
	}
	ok, err = p.DCAS(x, y, 11, 20, 1, 2)
	if err != nil || !ok {
		t.Fatalf("DCAS = %v, %v", ok, err)
	}
	ok, err = p.Transfer(y, x, 2)
	if err != nil || !ok {
		t.Fatalf("Transfer = %v, %v", ok, err)
	}
	got, _ := p.Read(x)
	if got != 3 {
		t.Fatalf("x = %d after transfer, want 3", got)
	}
}

func TestHistoryReconstruction(t *testing.T) {
	s := newStore(t, Config{Procs: 2, Consistency: MLinearizable, Seed: 4})
	p0, _ := s.Process(0)
	p1, _ := s.Process(1)
	x, _ := s.Object("x")

	if err := p0.Write(x, 5); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v, err := p1.Read(x); err != nil || v != 5 {
		t.Fatalf("Read = %d, %v", v, err)
	}

	h, err := s.History()
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	// init + write + read.
	if h.Len() != 3 {
		t.Fatalf("history len = %d", h.Len())
	}
	// The read must read from the write, not from init.
	updates, err := s.UpdateOrder()
	if err != nil {
		t.Fatalf("UpdateOrder: %v", err)
	}
	if len(updates) != 1 {
		t.Fatalf("updates = %v", updates)
	}
	queries := h.Queries()
	if len(queries) != 1 {
		t.Fatalf("queries = %v", queries)
	}
	if src, ok := h.ReadsFromSource(queries[0], x); !ok || src != updates[0] {
		t.Fatalf("read source = %d, %v", int(src), ok)
	}
}

func TestVerifyMLinearizable(t *testing.T) {
	s := newStore(t, Config{Procs: 3, Consistency: MLinearizable, Seed: 5, MaxDelay: 2 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		p, _ := s.Process(i)
		wg.Add(1)
		go func(i int, p *Process) {
			defer wg.Done()
			x := object.ID(i % 3)
			for j := 0; j < 6; j++ {
				if j%2 == 0 {
					if err := p.Write(x, object.Value(i*100+j)); err != nil {
						t.Errorf("write: %v", err)
					}
				} else {
					if _, err := p.MultiRead(0, 1, 2); err != nil {
						t.Errorf("read: %v", err)
					}
				}
			}
		}(i, p)
	}
	wg.Wait()

	res, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.OK {
		t.Fatal("m-linearizable store produced a non-m-linearizable history (Theorem 20 violated)")
	}
	// Cross-check with the exact (NP-hard) decider.
	exact, err := checker.MLinearizable(res.History)
	if err != nil {
		t.Fatalf("exact check: %v", err)
	}
	if !exact.Admissible {
		t.Fatal("exact checker disagrees with Theorem 7 verification")
	}
}

func TestVerifyMSequential(t *testing.T) {
	s := newStore(t, Config{Procs: 3, Consistency: MSequential, Seed: 6, MaxDelay: 2 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		p, _ := s.Process(i)
		wg.Add(1)
		go func(i int, p *Process) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				if j%2 == 0 {
					if err := p.Write(object.ID(i%3), object.Value(i*100+j)); err != nil {
						t.Errorf("write: %v", err)
					}
				} else if _, err := p.Sum(0, 1, 2); err != nil {
					t.Errorf("sum: %v", err)
				}
			}
		}(i, p)
	}
	wg.Wait()

	res, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.OK {
		t.Fatal("m-SC store produced a non-m-SC history (Theorem 15 violated)")
	}
	exact, err := checker.MSequentiallyConsistent(res.History)
	if err != nil {
		t.Fatalf("exact check: %v", err)
	}
	if !exact.Admissible {
		t.Fatal("exact checker disagrees")
	}
}

// TestMSCIsNotMLinearizable demonstrates the separation between the two
// protocols: a stale local read of the Figure 4 protocol yields a history
// that is m-sequentially consistent but NOT m-linearizable.
func TestMSCIsNotMLinearizable(t *testing.T) {
	foundStale := false
	for trial := 0; trial < 40 && !foundStale; trial++ {
		s := newStore(t, Config{
			Procs: 2, Objects: []string{"x"}, Consistency: MSequential,
			Seed: int64(trial), MaxDelay: 30 * time.Millisecond,
		})
		p0, _ := s.Process(0)
		p1, _ := s.Process(1)
		x, _ := s.Object("x")
		if err := p0.Write(x, 1); err != nil {
			t.Fatalf("write: %v", err)
		}
		v, err := p1.Read(x)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if v != 0 {
			continue // not stale this time
		}
		foundStale = true

		res, err := s.Verify()
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if !res.OK {
			t.Fatal("stale read must still be m-sequentially consistent")
		}
		lin, err := checker.MLinearizable(res.History)
		if err != nil {
			t.Fatalf("MLinearizable: %v", err)
		}
		if lin.Admissible {
			t.Fatal("a stale read after a responded update cannot be m-linearizable")
		}
	}
	if !foundStale {
		t.Fatal("no stale read observed in 40 trials")
	}
}

func TestLamportBroadcastStore(t *testing.T) {
	s := newStore(t, Config{
		Procs: 3, Consistency: MLinearizable, Broadcast: LamportBroadcast,
		Seed: 8, MaxDelay: time.Millisecond,
	})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		p, _ := s.Process(i)
		wg.Add(1)
		go func(i int, p *Process) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if err := p.Write(object.ID(j%3), object.Value(i*10+j)); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}(i, p)
	}
	wg.Wait()
	res, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.OK {
		t.Fatal("Lamport-broadcast store not m-linearizable")
	}
}

func TestDCASConcurrencyNoTornReads(t *testing.T) {
	// Concurrent DCAS pairs (x, y) must always be seen consistent:
	// every MultiRead observes x == y.
	s := newStore(t, Config{
		Procs: 4, Objects: []string{"x", "y"}, Consistency: MLinearizable,
		Seed: 9, MaxDelay: time.Millisecond,
	})
	x, _ := s.Object("x")
	y, _ := s.Object("y")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		p, _ := s.Process(i)
		wg.Add(1)
		go func(p *Process) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				vals, err := p.MultiRead(x, y)
				if err != nil {
					t.Errorf("read pair: %v", err)
					return
				}
				if _, err := p.DCAS(x, y, vals[0], vals[1], vals[0]+1, vals[1]+1); err != nil {
					t.Errorf("DCAS: %v", err)
					return
				}
			}
		}(p)
	}
	for i := 2; i < 4; i++ {
		p, _ := s.Process(i)
		wg.Add(1)
		go func(p *Process) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				vals, err := p.MultiRead(x, y)
				if err != nil {
					t.Errorf("audit: %v", err)
					return
				}
				if vals[0] != vals[1] {
					t.Errorf("torn read: x=%d y=%d", vals[0], vals[1])
					return
				}
			}
		}(p)
	}
	wg.Wait()
	res, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.OK {
		t.Fatal("history not m-linearizable")
	}
}

func TestHistoryErrorsWhenRecordingDisabled(t *testing.T) {
	s := newStore(t, Config{Procs: 1, Seed: 10, DisableRecording: true})
	p, _ := s.Process(0)
	if err := p.Write(0, 1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := s.History(); !errors.Is(err, ErrRecordingDisabled) {
		t.Fatalf("err = %v, want ErrRecordingDisabled", err)
	}
}

func TestExecuteAfterClose(t *testing.T) {
	s, err := New(Config{Procs: 1, Objects: []string{"x"}, Seed: 11})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, _ := s.Process(0)
	s.Close()
	if _, err := p.Read(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestQueryTrafficByConsistency: m-SC queries are local and send
// nothing; an m-lin ALL-level query is one request and one response per
// replica, 2·Procs messages, on the simulated network and over loopback
// TCP alike.
func TestQueryTrafficByConsistency(t *testing.T) {
	const procs, reads = 3, 5
	for _, link := range []struct {
		name  string
		links func(t *testing.T) network.Factory
	}{
		{"sim", func(*testing.T) network.Factory { return nil }},
		{"tcp", func(t *testing.T) network.Factory {
			cl, err := transport.NewCluster(procs)
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			t.Cleanup(cl.Close)
			return cl.Factory()
		}},
	} {
		t.Run(link.name, func(t *testing.T) {
			for _, tc := range []struct {
				cons  Consistency
				level Level
				want  int64
			}{
				{MSequential, One, 0},
				{MLinearizable, All, 2 * procs * reads},
			} {
				s := newStore(t, Config{Procs: procs, Consistency: tc.cons, Seed: 12, Links: link.links(t)})
				p, _ := s.Process(0)
				for i := 0; i < reads; i++ {
					if _, err := p.Exec(mop.ReadOp{X: 0}, ExecOptions{Level: tc.level}); err != nil {
						t.Fatalf("%v read: %v", tc.cons, err)
					}
				}
				if got := s.QueryTraffic().Messages; got != tc.want {
					t.Fatalf("%v: %d %v reads sent %d query messages, want %d", tc.cons, reads, tc.level, got, tc.want)
				}
			}
		})
	}
}

func TestRelevantOnlyStoreVerifies(t *testing.T) {
	s := newStore(t, Config{
		Procs: 3, Consistency: MLinearizable, RelevantOnly: true,
		Seed: 14, MaxDelay: time.Millisecond,
	})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		p, _ := s.Process(i)
		wg.Add(1)
		go func(i int, p *Process) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				if j%2 == 0 {
					if err := p.Write(object.ID(j%3), object.Value(i*10+j)); err != nil {
						t.Errorf("write: %v", err)
					}
				} else if _, err := p.Read(object.ID((j + i) % 3)); err != nil {
					t.Errorf("read: %v", err)
				}
			}
		}(i, p)
	}
	wg.Wait()
	res, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.OK {
		t.Fatal("relevant-only m-lin store not m-linearizable — Section 5.2 optimization broken")
	}
}

func TestVerifyWitnessRespectsSemantics(t *testing.T) {
	s := newStore(t, Config{Procs: 2, Consistency: MLinearizable, Seed: 15})
	p0, _ := s.Process(0)
	x, _ := s.Object("x")
	for i := 1; i <= 5; i++ {
		if err := p0.Write(x, object.Value(i)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	res, err := s.Verify()
	if err != nil || !res.OK {
		t.Fatalf("Verify = %+v, %v", res, err)
	}
	finals := res.Witness.Replay(res.History)
	if finals[x] != 5 {
		t.Fatalf("witness replay final x = %d, want 5", finals[x])
	}
}

func TestVerifyExactAgreesWithVerify(t *testing.T) {
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		s := newStore(t, Config{Procs: 2, Consistency: cons, Seed: 41})
		p0, _ := s.Process(0)
		p1, _ := s.Process(1)
		if err := p0.Write(0, 1); err != nil {
			t.Fatalf("%v: write: %v", cons, err)
		}
		if _, err := p1.Read(0); err != nil {
			t.Fatalf("%v: read: %v", cons, err)
		}
		fast, err := s.Verify()
		if err != nil {
			t.Fatalf("%v: Verify: %v", cons, err)
		}
		exact, err := s.VerifyExact()
		if err != nil {
			t.Fatalf("%v: VerifyExact: %v", cons, err)
		}
		if fast.OK != exact.OK {
			t.Fatalf("%v: Verify=%v VerifyExact=%v", cons, fast.OK, exact.OK)
		}
		if !exact.OK {
			t.Fatalf("%v: run failed exact verification", cons)
		}
	}
}
