package core

import (
	"sync"
	"testing"
	"time"

	"moc/internal/network"
	"moc/internal/network/testutil"
	"moc/internal/object"
)

// chaosFaults is the adversarial delivery profile from the acceptance
// criteria: 20% drops, 5% duplicates, occasional delay spikes, and one
// 50ms partition isolating process 0 from the rest. The reliable layer
// must absorb all of it.
func chaosFaults() *network.Faults {
	heal := 50 * time.Millisecond
	if testing.Short() {
		heal = 15 * time.Millisecond
	}
	return &network.Faults{
		DropProb:       0.2,
		DupProb:        0.05,
		DelaySpikeProb: 0.05,
		DelaySpike:     2 * time.Millisecond,
		Partitions:     []network.Partition{{Side: []int{0}, Start: 0, Heal: heal}},
		RTO:            3 * time.Millisecond,
	}
}

// runChaosWorkload drives a small concurrent multi-process workload
// (kept small: the histories are re-checked with the exact NP-hard
// deciders) and returns after all processes quiesce.
func runChaosWorkload(t *testing.T, s *Store) {
	t.Helper()
	opsPerProc := 5
	if testing.Short() {
		opsPerProc = 3
	}
	var wg sync.WaitGroup
	for i := 0; i < s.Procs(); i++ {
		p, err := s.Process(i)
		if err != nil {
			t.Fatalf("Process(%d): %v", i, err)
		}
		wg.Add(1)
		go func(i int, p *Process) {
			defer wg.Done()
			for j := 0; j < opsPerProc; j++ {
				switch j % 3 {
				case 0:
					if err := p.MAssign(map[object.ID]object.Value{
						object.ID(j % 3):       object.Value(100*i + j),
						object.ID((j + 1) % 3): object.Value(100*i + j + 1),
					}); err != nil {
						t.Errorf("proc %d massign: %v", i, err)
						return
					}
				case 1:
					if _, err := p.MultiRead(object.ID(i%3), object.ID((i+1)%3)); err != nil {
						t.Errorf("proc %d multiread: %v", i, err)
						return
					}
				default:
					if err := p.Write(object.ID((i+j)%3), object.Value(i*10+j)); err != nil {
						t.Errorf("proc %d write: %v", i, err)
						return
					}
				}
			}
		}(i, p)
	}
	wg.Wait()
}

// waitForRetransmissions polls until the reliable layer has resent at
// least one dropped frame. A workload can finish before the first
// retransmission timer fires, so the counters need a moment to become
// visible. On timeout the helper dumps the store's merged transport
// counters.
func waitForRetransmissions(t *testing.T, s *Store) {
	t.Helper()
	testutil.Eventually(t, 10*time.Second, func() bool {
		return s.NetStats().Retransmitted > 0
	}, testutil.Source("store transports", s.NetStats))
}

// TestChaosAllConsistencyModes runs every consistency mode over the
// lossy, duplicating, partitioned network and asserts the recorded
// histories still pass the exact consistency checkers — the paper's
// claims must survive adversarial delivery once retransmission restores
// exactly-once links.
func TestChaosAllConsistencyModes(t *testing.T) {
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		t.Run(cons.String(), func(t *testing.T) {
			t.Parallel()
			s := newStore(t, Config{
				Procs:       3,
				Consistency: cons,
				Seed:        71,
				MaxDelay:    time.Millisecond,
				Faults:      chaosFaults(),
			})
			runChaosWorkload(t, s)
			waitForRetransmissions(t, s)

			exact, err := s.VerifyExact()
			if err != nil {
				t.Fatalf("VerifyExact: %v", err)
			}
			if !exact.OK {
				t.Fatalf("history under faults fails exact %s checker — protocol bug exposed by lossy links", cons)
			}
			fast, err := s.Verify()
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if !fast.OK {
				t.Fatalf("history under faults fails Theorem 7 %s verification", cons)
			}

			ns := s.NetStats()
			if ns.Dropped == 0 {
				t.Errorf("fault run reported zero drops: %+v", ns)
			}
			if ns.Retransmitted == 0 {
				t.Errorf("fault run reported zero retransmissions: %+v", ns)
			}
		})
	}
}

// TestChaosAllBroadcasts runs the m-sequential store over each of the
// three atomic-broadcast implementations under faults: the sequencer's
// ordering traffic, Lamport's data/ack mesh, and the circulating token
// must all survive loss and duplication.
func TestChaosAllBroadcasts(t *testing.T) {
	for _, bc := range []struct {
		name string
		kind BroadcastKind
	}{
		{"sequencer", SequencerBroadcast},
		{"lamport", LamportBroadcast},
		{"token", TokenBroadcast},
	} {
		t.Run(bc.name, func(t *testing.T) {
			t.Parallel()
			s := newStore(t, Config{
				Procs:       3,
				Consistency: MSequential,
				Broadcast:   bc.kind,
				Seed:        73,
				MaxDelay:    time.Millisecond,
				Faults:      chaosFaults(),
			})
			runChaosWorkload(t, s)
			waitForRetransmissions(t, s)
			exact, err := s.VerifyExact()
			if err != nil {
				t.Fatalf("VerifyExact: %v", err)
			}
			if !exact.OK {
				t.Fatalf("%s broadcast under faults breaks m-sequential consistency", bc.name)
			}
			if ns := s.NetStats(); ns.Dropped == 0 || ns.Retransmitted == 0 {
				t.Errorf("fault run reported no faults: %+v", ns)
			}
		})
	}
}

// TestFaultFreeStoreHasZeroFaultCounters pins the complementary
// guarantee: without a Faults config the transport is the plain reliable
// network and every fault counter stays zero.
func TestFaultFreeStoreHasZeroFaultCounters(t *testing.T) {
	s := newStore(t, Config{
		Procs:       3,
		Consistency: MLinearizable,
		Seed:        75,
		MaxDelay:    time.Millisecond,
	})
	runChaosWorkload(t, s)
	ns := s.NetStats()
	if ns.Dropped != 0 || ns.Duplicated != 0 || ns.Retransmitted != 0 {
		t.Fatalf("fault-free run has nonzero fault counters: %+v", ns)
	}
	if ns.Messages == 0 {
		t.Fatal("no traffic recorded at all — NetStats aggregation broken")
	}
}
