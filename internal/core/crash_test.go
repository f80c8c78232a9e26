package core

import (
	"sync"
	"testing"
	"time"

	"moc/internal/abcast"
	"moc/internal/monitor"
	"moc/internal/network"
	"moc/internal/object"
)

// scaled stretches a crash-schedule timing constant by crashTimeScale
// (1 in normal builds, larger under -race; see timescale_race_test.go).
func scaled(d time.Duration) time.Duration { return d * crashTimeScale }

// crashFaults is the acceptance-criteria adversary: delivery drops, an
// initial partition isolating process 0, and seed-driven crashes of
// ⌈n/2⌉−1 = 2 of the 5 processes — first process 0 (the initial
// sequencer leader, which also restarts and must recover), then
// process 2. The crash windows are staggered well past
// the failure-detection timeout so suspicion can mature between them,
// and the partition heals before the detector would mistake it for a
// crash. (Durations quoted in comments are the unscaled, non-race
// values.)
func crashFaults() *network.Faults {
	return &network.Faults{
		DropProb:       0.05,
		DelaySpikeProb: 0.05,
		DelaySpike:     time.Millisecond,
		Partitions:     []network.Partition{{Side: []int{0}, Start: 0, Heal: scaled(30 * time.Millisecond)}},
		Crashes: []network.Crash{
			{Proc: 0, At: scaled(60 * time.Millisecond), Restart: scaled(200 * time.Millisecond)},  // down 60–200ms
			{Proc: 2, At: scaled(320 * time.Millisecond), Restart: scaled(460 * time.Millisecond)}, // down 320–460ms
		},
		RTO: 3 * time.Millisecond,
	}
}

// crashFD is the detection timing for crashFaults. The timeout must
// dominate the longest silence a LIVE process can exhibit, which here is
// not the 30ms partition itself but its echo through the reliable layer:
// per-link FIFO holds all frames behind the oldest partition-dropped one,
// whose retransmission backoff (3, 9, 21, 45ms...) can delay it — and so
// every heartbeat behind it — to ~45ms after the run starts, or ~93ms if
// one more retransmission is dropped on top. 100ms keeps false suspicion
// (which no crash-stop detector can fully avoid) out of the schedule,
// per the timing assumption documented in failover.go. Under -race both
// constants scale with the schedule so the dominance survives the
// detector's processing dilation.
func crashFD() *abcast.FDConfig {
	return &abcast.FDConfig{Interval: scaled(2 * time.Millisecond), Timeout: scaled(100 * time.Millisecond)}
}

// crashPhase issues a burst of update and query m-operations at each of
// the given processes concurrently and waits for all of them — every
// listed process must be up for the whole phase.
func crashPhase(t *testing.T, s *Store, tag int, procs ...int) {
	t.Helper()
	var wg sync.WaitGroup
	for _, i := range procs {
		p, err := s.Process(i)
		if err != nil {
			t.Fatalf("Process(%d): %v", i, err)
		}
		wg.Add(1)
		go func(i int, p *Process) {
			defer wg.Done()
			if err := p.MAssign(map[object.ID]object.Value{
				object.ID(i % 3):       object.Value(1000*tag + 10*i),
				object.ID((i + 1) % 3): object.Value(1000*tag + 10*i + 1),
			}); err != nil {
				t.Errorf("phase %d proc %d massign: %v", tag, i, err)
				return
			}
			if _, err := p.MultiRead(object.ID(i%3), object.ID((i+1)%3)); err != nil {
				t.Errorf("phase %d proc %d multiread: %v", tag, i, err)
				return
			}
			if err := p.Write(object.ID((i+2)%3), object.Value(1000*tag+10*i+2)); err != nil {
				t.Errorf("phase %d proc %d write: %v", tag, i, err)
			}
		}(i, p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// sleepUntil parks the caller until the given instant on the store's
// fault-schedule clock (time since store creation).
func sleepUntil(origin time.Time, at time.Duration) {
	if d := at - time.Since(origin); d > 0 {
		time.Sleep(d)
	}
}

// runCrashSchedule drives the phased workload around crashFaults'
// windows: ops everywhere before the first crash, ops at the survivors
// during each crash window (forcing sequencer failover), and ops
// everywhere — including both restarted processes — at the end.
func runCrashSchedule(t *testing.T, s *Store, origin time.Time) {
	t.Helper()
	crashPhase(t, s, 1, 0, 1, 2, 3, 4) // partition active, everyone up
	sleepUntil(origin, scaled(70*time.Millisecond))
	crashPhase(t, s, 2, 1, 2, 3, 4) // proc 0 down: coordinator failover
	sleepUntil(origin, scaled(225*time.Millisecond))
	crashPhase(t, s, 3, 0, 1, 2, 3, 4) // proc 0 restarted and recovered
	sleepUntil(origin, scaled(330*time.Millisecond))
	crashPhase(t, s, 4, 0, 1, 3, 4) // proc 2 down
	sleepUntil(origin, scaled(485*time.Millisecond))
	crashPhase(t, s, 5, 0, 1, 2, 3, 4) // everyone back
}

// TestCrashChaos is the crash acceptance test: the sequencer broadcast
// (the only one that fails over) under both replicated consistency
// conditions survives drops, a partition, and staggered crash/restart
// of two of five processes — including the initial sequencer leader —
// without hanging, and the histories still pass the exact (NP-hard)
// checkers and the Section 5 proof-obligation monitor across the crash
// boundary.
func TestCrashChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule needs its full wall-clock timeline")
	}
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		t.Run("sequencer/"+cons.String(), func(t *testing.T) {
			t.Parallel()
			s := newStore(t, Config{
				Procs:       5,
				Consistency: cons,
				Broadcast:   SequencerBroadcast,
				Seed:        81,
				MaxDelay:    time.Millisecond,
				Faults:      crashFaults(),
				FD:          crashFD(),
				// Bounded queries: a query must not block on a crashed
				// responder for longer than the re-solicitation budget.
				QueryTimeout: scaled(15 * time.Millisecond),
				QueryRetries: 2,
			})
			origin := time.Now()
			runCrashSchedule(t, s, origin)

			exact, err := s.VerifyExact()
			if err != nil {
				t.Fatalf("VerifyExact: %v", err)
			}
			if !exact.OK {
				t.Fatalf("history under crashes fails exact %s checker", cons)
			}
			fast, err := s.Verify()
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if !fast.OK {
				t.Fatalf("history under crashes fails Theorem 7 %s verification", cons)
			}

			// The monitor's proof obligations must hold across the
			// crash boundary: restarted processes resume with records
			// whose version vectors extend the pre-crash ones.
			level := monitor.MSCLevel
			if cons == MLinearizable {
				level = monitor.MLinLevel
			}
			if v := monitor.ValidateAxioms(s.Records(), s.Registry().Len(), level); len(v) != 0 {
				t.Fatalf("proof obligations violated across crash boundary: %v", v)
			}

			ns := s.NetStats()
			if ns.Crashes == 0 || ns.Restarts == 0 {
				t.Fatalf("crash schedule not exercised: %+v", ns)
			}
			if ns.Dropped == 0 || ns.Retransmitted == 0 {
				t.Errorf("faulty run reported no drops/retransmissions: %+v", ns)
			}
		})
	}
}

// TestCheckpointRecovery pins the state-transfer path: while process 0
// is down the survivors commit a backlog large enough that, at the
// restart instant, process 0's local copy must be behind a live peer's —
// so the recovery watcher adopts a checkpoint rather than replaying the
// whole outage from retransmissions. The slow RTO keeps redelivery from
// winning the race.
func TestCheckpointRecovery(t *testing.T) {
	faults := &network.Faults{
		Crashes: []network.Crash{{Proc: 0, At: scaled(30 * time.Millisecond), Restart: scaled(180 * time.Millisecond)}},
		RTO:     scaled(20 * time.Millisecond),
	}
	s := newStore(t, Config{
		Procs:       3,
		Consistency: MSequential,
		Seed:        83,
		MaxDelay:    time.Millisecond,
		Faults:      faults,
	})
	origin := time.Now()

	crashPhase(t, s, 1, 0, 1, 2)
	sleepUntil(origin, scaled(45*time.Millisecond))
	// Backlog while 0 is down (down 30–180ms): 30 updates the checkpoint
	// must subsume.
	for j := 0; j < 15; j++ {
		for _, i := range []int{1, 2} {
			p, _ := s.Process(i)
			if err := p.Write(object.ID(j%3), object.Value(100*i+j)); err != nil {
				t.Fatalf("backlog write proc %d: %v", i, err)
			}
		}
	}
	sleepUntil(origin, scaled(200*time.Millisecond))
	crashPhase(t, s, 2, 0, 1, 2)

	if n := s.Recoveries(); n == 0 {
		t.Fatal("restarted process adopted no checkpoint despite a large missed backlog")
	}
	if rt := s.RecoveryTraffic(); rt.Messages == 0 {
		t.Fatalf("recovery reported an adoption but no transfer traffic: %+v", rt)
	}
	exact, err := s.VerifyExact()
	if err != nil {
		t.Fatalf("VerifyExact: %v", err)
	}
	if !exact.OK {
		t.Fatal("history with checkpoint adoption fails the exact m-SC checker")
	}
	if v := monitor.ValidateAxioms(s.Records(), s.Registry().Len(), monitor.MSCLevel); len(v) != 0 {
		t.Fatalf("proof obligations violated after checkpoint adoption: %v", v)
	}
}

// TestCrashFreeRunKeepsCrashCountersZero pins the control: a faulty but
// crash-free schedule reproduces the seed behavior with Crashes and
// Restarts both zero.
func TestCrashFreeRunKeepsCrashCountersZero(t *testing.T) {
	s := newStore(t, Config{
		Procs:       3,
		Consistency: MLinearizable,
		Seed:        85,
		MaxDelay:    time.Millisecond,
		Faults:      chaosFaults(),
	})
	runChaosWorkload(t, s)
	ns := s.NetStats()
	if ns.Crashes != 0 || ns.Restarts != 0 {
		t.Fatalf("crash-free run has nonzero crash counters: %+v", ns)
	}
	if s.Recoveries() != 0 {
		t.Fatalf("crash-free run performed %d recoveries", s.Recoveries())
	}
	exact, err := s.VerifyExact()
	if err != nil {
		t.Fatalf("VerifyExact: %v", err)
	}
	if !exact.OK {
		t.Fatal("crash-free control run fails the exact checker")
	}
}
