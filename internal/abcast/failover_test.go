package abcast

import (
	"fmt"
	"testing"
	"time"

	"moc/internal/network"
	"moc/internal/network/testutil"
)

// fdForTest returns detection timing that comfortably dominates the
// test networks' delays and retransmission backoff, per the timing
// assumption in failover.go.
func fdForTest() *FDConfig {
	return &FDConfig{Interval: 2 * time.Millisecond, Timeout: 20 * time.Millisecond}
}

// checkAgreement verifies exactly-once, gap-free, identical delivery
// across the collected per-process streams.
func checkAgreement(t *testing.T, orders map[int][]Delivery) {
	t.Helper()
	var ref []Delivery
	refProc := -1
	for p, ds := range orders {
		seen := make(map[any]bool, len(ds))
		for i, d := range ds {
			if d.Seq != int64(i) {
				t.Fatalf("proc %d delivery %d: seq %d (gap or reorder)", p, i, d.Seq)
			}
			if seen[d.Payload] {
				t.Fatalf("proc %d: duplicate delivery %v", p, d.Payload)
			}
			seen[d.Payload] = true
		}
		if ref == nil {
			ref, refProc = ds, p
		}
	}
	for p, ds := range orders {
		for i := range ref {
			if ds[i].Payload != ref[i].Payload || ds[i].From != ref[i].From {
				t.Fatalf("total order violated at position %d: proc%d=%v proc%d=%v",
					i, refProc, ref[i].Payload, p, ds[i].Payload)
			}
		}
	}
}

// TestSequencerFDConformance: with failure detection enabled but no
// crashes, the leader-among-members sequencer still satisfies the full
// atomic-broadcast contract.
func TestSequencerFDConformance(t *testing.T) {
	b, err := NewSequencer(SequencerConfig{Procs: 4, Seed: 21, MaxDelay: time.Millisecond, FD: fdForTest()})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 4, 20)
	if n := b.Failovers(); n != 0 {
		t.Fatalf("crash-free run performed %d failovers", n)
	}
}

// runCoordinatorCrash drives a broadcaster whose initial sequencer
// leader (process 0) crashes mid-run, verifies that the three live
// processes agree on one exactly-once stream covering every message
// they sent, and returns those streams.
func runCoordinatorCrash(t *testing.T, b Broadcaster, restart bool) map[int][]Delivery {
	t.Helper()
	const procs = 4
	const preCrash, postCrash = 5, 10
	src := testutil.Source("transport", b.NetStats)

	// Phase 1: all live processes broadcast while process 0 is still up.
	for i := 0; i < preCrash; i++ {
		for p := 1; p < procs; p++ {
			if err := b.Broadcast(p, fmt.Sprintf("pre-p%d-m%d", p, i), 8); err != nil {
				t.Fatalf("Broadcast(%d): %v", p, err)
			}
		}
	}
	// Phase 2: wait out the crash (at 40ms), then broadcast again — these
	// messages can only be ordered after failover.
	time.Sleep(70 * time.Millisecond)
	for i := 0; i < postCrash; i++ {
		for p := 1; p < procs; p++ {
			if err := b.Broadcast(p, fmt.Sprintf("post-p%d-m%d", p, i), 8); err != nil {
				t.Fatalf("Broadcast(%d): %v", p, err)
			}
		}
	}

	total := (procs - 1) * (preCrash + postCrash)
	orders := make(map[int][]Delivery, procs)
	collectors := make([]testutil.Collector[Delivery], procs)
	for p := 1; p < procs; p++ {
		b.Subscribe(p, collectors[p].Add)
		orders[p] = collectors[p].Wait(t, 30*time.Second, total, src)
	}
	if restart {
		// The restarted process catches up on everything it missed via
		// retransmission and delivers the identical stream.
		b.Subscribe(0, collectors[0].Add)
		orders[0] = collectors[0].Wait(t, 30*time.Second, total, src)
	}
	if t.Failed() {
		t.FailNow()
	}
	checkAgreement(t, orders)
	return orders
}

func crashSchedule(restartAt time.Duration) *network.Faults {
	return &network.Faults{Crashes: []network.Crash{{Proc: 0, At: 40 * time.Millisecond, Restart: restartAt}}}
}

// TestSequencerFailover: the initial leader crashes and never returns;
// the next live process takes over and every message — including those
// submitted after the crash — is delivered exactly once in one order at
// every live process.
func TestSequencerFailover(t *testing.T) {
	b, err := NewSequencer(SequencerConfig{
		Procs: 4, Seed: 24, MaxDelay: time.Millisecond,
		Faults: crashSchedule(0), FD: fdForTest(),
	})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	defer b.Close()
	runCoordinatorCrash(t, b, false)
	if b.Failovers() == 0 {
		t.Fatal("leader crashed but no failover was performed")
	}
}

// TestSequencerFailoverWithRestart: the crashed leader restarts and
// rejoins as a member, catching up on the orders it missed.
func TestSequencerFailoverWithRestart(t *testing.T) {
	b, err := NewSequencer(SequencerConfig{
		Procs: 4, Seed: 25, MaxDelay: time.Millisecond,
		Faults: crashSchedule(120 * time.Millisecond), FD: fdForTest(),
	})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	defer b.Close()
	runCoordinatorCrash(t, b, true)
	if b.Failovers() == 0 {
		t.Fatal("leader crashed but no failover was performed")
	}
}
