package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"moc/internal/checker"
	"moc/internal/monitor"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/shard"
	"moc/internal/verify"
)

// TestShardInterleaving is the randomized cross-shard harness: seeded
// workloads mixing single-shard operations (which ride one broadcast
// lane untouched) with cross-shard m-operations (ordered by the
// three-phase ticket/close/commit merge), across both broadcast
// consistencies, every broadcast implementation, shard counts (the
// sequencer at 2 and at 4 shards, the lanes
// TestShardingScalesOrderingCapacity measures), and — on
// m-linearizable stores — randomized per-request query levels. Every
// run is then held to the full verification stack:
//
//   - Store.Verify, the polynomial sharded path (per-object version
//     chains under the OO-constraint);
//   - the trace roundtrip (Trace → MergeTraces → BuildHistory) followed
//     by the UNCHANGED exact deciders — the sharded store composes
//     per-shard total orders, and the checkers must accept the merged
//     history without knowing shards exist;
//   - the online pipeline mocmon runs (Section 5 monitor + incremental
//     Theorem 7 checker), which must report zero violations.
//
// Short mode keeps a couple of seeds per case for `make quick`; the
// full run is the soak `make verify` uses.
func TestShardInterleaving(t *testing.T) {
	seeds := int64(5)
	opsPerProc := 6
	if testing.Short() {
		seeds, opsPerProc = 2, 4
	}
	const procs = 3
	names := []string{"o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7"}

	type tcase struct {
		cons   Consistency
		bcast  BroadcastKind
		shards int
	}
	var cases []tcase
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		cases = append(cases,
			tcase{cons, SequencerBroadcast, 2},
			tcase{cons, SequencerBroadcast, 4},
			tcase{cons, TokenBroadcast, 4},
			tcase{cons, LamportBroadcast, 2},
		)
	}
	bcastName := map[BroadcastKind]string{
		SequencerBroadcast: "seq", LamportBroadcast: "lamport", TokenBroadcast: "token",
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%v-%s-s%d", tc.cons, bcastName[tc.bcast], tc.shards), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				runShardInterleaving(t, tc.cons, tc.bcast, tc.shards, procs, names, opsPerProc, seed)
			}
		})
	}
}

func runShardInterleaving(t *testing.T, cons Consistency, bcast BroadcastKind, shards, procs int, names []string, opsPerProc int, seed int64) {
	t.Helper()
	// Odd-seed m-linearizable runs randomize per-request query levels;
	// those are held to the mixed condition (m-SC overall, m-lin on the
	// strong subset) — a ONE query is allowed to read stale, so the
	// full-strength m-lin deciders do not apply to them. Even seeds stay
	// strong-only and exercise the polynomial sharded Verify path.
	leveled := cons == MLinearizable && seed%2 == 1
	s, err := New(Config{
		Procs: procs, Objects: names, Consistency: cons, Broadcast: bcast,
		Shards: shards, Seed: seed, MaxDelay: 300 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("seed %d: New: %v", seed, err)
	}
	defer s.Close()
	smap := s.ShardMap()

	// Per-process plans are drawn up front from one seeded source, so a
	// failing (cons, bcast, shards, seed) tuple replays exactly.
	rng := rand.New(rand.NewSource(seed*1000 + int64(shards)))
	plans := make([][]shardPlannedOp, procs)
	nextVal := object.Value(1)
	for pi := range plans {
		for j := 0; j < opsPerProc; j++ {
			op := planShardOp(rng, smap, len(names), leveled)
			for i := range op.vals {
				op.vals[i] = nextVal
				nextVal++
			}
			plans[pi] = append(plans[pi], op)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, procs)
	for pi := 0; pi < procs; pi++ {
		p, _ := s.Process(pi)
		wg.Add(1)
		go func(plan []shardPlannedOp, p *Process) {
			defer wg.Done()
			for _, op := range plan {
				var pr mop.Procedure
				if op.query {
					pr = mop.MultiRead{Xs: op.objs}
				} else {
					writes := make(map[object.ID]object.Value, len(op.objs))
					for i, x := range op.objs {
						writes[x] = op.vals[i]
					}
					pr = mop.MAssign{Writes: writes}
				}
				if _, err := p.Exec(pr, ExecOptions{Level: op.level}); err != nil {
					errCh <- err
					return
				}
			}
		}(plans[pi], p)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("seed %d: %v", seed, err)
	default:
	}

	// Layer 1: the store's own guarantee — the polynomial sharded path
	// for single-level runs, the exact mixed deciders for leveled ones.
	if leveled {
		res, err := s.VerifyLeveled()
		if err != nil {
			t.Fatalf("seed %d: VerifyLeveled: %v", seed, err)
		}
		if !res.OK {
			t.Fatalf("seed %d: sharded leveled %v store failed mixed-level verification", seed, bcast)
		}
	} else {
		res, err := s.Verify()
		if err != nil {
			t.Fatalf("seed %d: Verify: %v", seed, err)
		}
		if !res.OK {
			t.Fatalf("seed %d: sharded %v/%v store failed its own verification", seed, cons, bcast)
		}
	}

	// Layer 2: trace roundtrip into the unchanged exact deciders.
	tr, err := s.Trace(0)
	if err != nil {
		t.Fatalf("seed %d: Trace: %v", seed, err)
	}
	if tr.Shards != s.ShardSpec() || tr.Shards == "" {
		t.Fatalf("seed %d: trace shard spec %q, store %q", seed, tr.Shards, s.ShardSpec())
	}
	recs, reg, mergedCons, err := MergeTraces(tr)
	if err != nil {
		t.Fatalf("seed %d: MergeTraces: %v", seed, err)
	}
	if mergedCons != cons {
		t.Fatalf("seed %d: merged consistency %v, want %v", seed, mergedCons, cons)
	}
	h, _, err := BuildHistory(reg, recs)
	if err != nil {
		t.Fatalf("seed %d: BuildHistory: %v", seed, err)
	}
	switch {
	case cons == MSequential:
		exact, err := checker.MSequentiallyConsistent(h)
		if err != nil {
			t.Fatalf("seed %d: exact m-SC: %v", seed, err)
		}
		if !exact.Admissible {
			t.Fatalf("seed %d: merged sharded history rejected by the exact m-SC decider", seed)
		}
	case leveled:
		// Queries carried randomized per-request levels, so the mixed
		// condition applies: m-SC overall, m-lin on the strong subset.
		mixed, err := checker.MixedLevels(h)
		if err != nil {
			t.Fatalf("seed %d: exact mixed: %v", seed, err)
		}
		if !mixed.Consistent {
			t.Fatalf("seed %d: merged sharded history rejected by the exact mixed-level deciders", seed)
		}
	default:
		exact, err := checker.MLinearizable(h)
		if err != nil {
			t.Fatalf("seed %d: exact m-lin: %v", seed, err)
		}
		if !exact.Admissible {
			t.Fatalf("seed %d: merged sharded history rejected by the exact m-lin decider", seed)
		}
	}

	// Layer 3: the live pipeline (merge → monitor → incremental checker)
	// exactly as mocmon would consume the streamed records.
	level := monitor.MSCLevel
	if cons == MLinearizable {
		level = monitor.MLinLevel
	}
	sorted := s.Records()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Resp < sorted[j].Resp })
	pipe := verify.NewPipeline(verify.PipelineConfig{
		NumObjects: len(names), Level: level, Shards: shards,
	})
	for _, rec := range sorted {
		pipe.Observe(rec)
	}
	if vs := pipe.Finish(); len(vs) != 0 {
		t.Fatalf("seed %d: online pipeline violations on a sharded run: %v", seed, vs)
	}
}

// shardPlannedOp is one pre-drawn m-operation of the interleaving
// workload.
type shardPlannedOp struct {
	objs  []object.ID
	vals  []object.Value // filled with globally distinct values for updates
	query bool
	level Level
}

// planShardOp draws one operation: half the time a single-shard
// footprint (1–2 objects of one shard), otherwise a cross-shard one
// (one object from each of 2–3 distinct shards, or fewer when the map
// has fewer). In leveled runs queries get a random per-request level.
func planShardOp(rng *rand.Rand, smap *shard.Map, numObjects int, leveled bool) shardPlannedOp {
	var op shardPlannedOp
	byShard := make([][]object.ID, smap.Shards())
	for x := 0; x < numObjects; x++ {
		s := smap.Of(object.ID(x))
		byShard[s] = append(byShard[s], object.ID(x))
	}
	if rng.Intn(2) == 0 {
		s := rng.Intn(smap.Shards())
		objs := byShard[s]
		op.objs = append(op.objs, objs[rng.Intn(len(objs))])
		if len(objs) > 1 && rng.Intn(2) == 0 {
			for {
				x := objs[rng.Intn(len(objs))]
				if x != op.objs[0] {
					op.objs = append(op.objs, x)
					break
				}
			}
		}
	} else {
		want := 2 + rng.Intn(2)
		if want > smap.Shards() {
			want = smap.Shards()
		}
		perm := rng.Perm(smap.Shards())
		for _, s := range perm[:want] {
			objs := byShard[s]
			op.objs = append(op.objs, objs[rng.Intn(len(objs))])
		}
	}
	op.query = rng.Intn(100) < 40
	op.vals = make([]object.Value, len(op.objs))
	if op.query && leveled {
		op.level = []Level{One, Quorum, All}[rng.Intn(3)]
	}
	return op
}
