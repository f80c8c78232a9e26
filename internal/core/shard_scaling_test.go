package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/object"
	"moc/internal/transport"
)

// TestShardingScalesOrderingCapacity holds the sharding extension to
// what it buys: ordering capacity. Theorem 7 needs one total order per
// conflicting object set, not one global order, so K shard lanes give
// K coordinators to disseminate updates where one lane gives one. Each
// cell drives the same closed-loop, shard-affine update workload while
// every NIC's egress is held to a fixed modeled budget
// (network.Faults.Bandwidth in the simulator,
// transport.Faults.Bandwidth over loopback TCP). The budget is what
// binds, not the CPU, so the ratio holds on a small host.
//
// The committed measurement is BENCH_E16.json (3.96x in the simulator
// and 2.80x over TCP at 4 shards). The bounds here sit well below the
// ratios a loaded or race-instrumented host reads, so that load cannot
// flip them; `go test -v` logs each cell's ops/s and ratio.
func TestShardingScalesOrderingCapacity(t *testing.T) {
	const bound4, boundCross, boundTCP = 2.0, 1.5, 1.25
	sim1 := shardScalingCell(t, false, 1, 0)
	sim4 := shardScalingCell(t, false, 4, 0)
	cross := shardScalingCell(t, false, 4, 0.10)
	tcp1 := shardScalingCell(t, true, 1, 0)
	tcp4 := shardScalingCell(t, true, 4, 0)
	for _, c := range []struct {
		name      string
		got, base float64
		bound     float64
	}{
		{"sim 4 shards", sim4, sim1, bound4},
		{"sim 4 shards, 10% cross", cross, sim1, boundCross},
		{"tcp 4 shards", tcp4, tcp1, boundTCP},
	} {
		ratio := c.got / c.base
		t.Logf("%s: %.0f ops/s, %.2fx of 1 shard (%.0f ops/s)", c.name, c.got, ratio, c.base)
		if ratio < c.bound {
			t.Errorf("%s: %.2fx of 1 shard, want >= %.2fx", c.name, ratio, c.bound)
		}
	}
}

// shardScalingCell runs one cell and returns its ops/s: m-SC over the
// sequencer, 4 processes, 16 objects, and 16 closed-loop workers per
// process issuing 12 updates each on the process's home shard. Process
// p's home is (p+1) mod shards, so that over TCP no process shares a
// node with its lane's coordinator (lane s's sits on node s) and every
// update crosses the throttled wire. With crossFrac > 0, workers whose
// home shard has an upward neighbor make that fraction of their
// updates two-shard MAssigns over (home, home+1).
func shardScalingCell(t *testing.T, tcp bool, shards int, crossFrac float64) float64 {
	t.Helper()
	const procs, objects, workers, updates, seed = 4, 16, 16, 12, 1
	const bandwidth = 300_000 // modeled egress budget, bytes/s per NIC
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	cfg := Config{
		Procs: procs, Objects: names, Consistency: MSequential, Seed: seed,
		Shards: shards, DisableRecording: true, MaxInflight: workers,
	}
	if tcp {
		cluster, err := transport.NewFaultyCluster(procs, transport.Faults{Seed: seed, Bandwidth: bandwidth})
		if err != nil {
			t.Fatalf("NewFaultyCluster: %v", err)
		}
		defer cluster.Close()
		cfg.Links = cluster.Factory()
	} else {
		cfg.MaxDelay = 100 * time.Microsecond
		cfg.Faults = &network.Faults{Bandwidth: bandwidth}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	var crossOps atomic.Int64
	errs := make(chan error, procs*workers)
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < procs; pid++ {
		proc, err := s.Process(pid)
		if err != nil {
			t.Fatalf("Process(%d): %v", pid, err)
		}
		home := (pid + 1) % shards
		var pool, foreign []object.ID
		for x := 0; x < objects; x++ {
			switch {
			case x%shards == home:
				pool = append(pool, object.ID(x))
			case crossFrac > 0 && x%shards == home+1:
				foreign = append(foreign, object.ID(x))
			}
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(pid, w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(1000*(pid*workers+w))))
				for i := 0; i < updates; i++ {
					x := pool[(w*updates+i)%len(pool)]
					v := object.Value(1000*pid + 10*w + i)
					var op mop.Procedure = mop.WriteOp{X: x, V: v}
					if len(foreign) > 0 && rng.Float64() < crossFrac {
						op = mop.MAssign{Writes: map[object.ID]object.Value{x: v, foreign[rng.Intn(len(foreign))]: v}}
						crossOps.Add(1)
					}
					if _, err := proc.Exec(op, ExecOptions{}); err != nil {
						errs <- err
						return
					}
				}
			}(pid, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		t.Fatalf("%d shards: %v", shards, err)
	default:
	}
	if crossFrac > 0 && crossOps.Load() == 0 {
		t.Fatalf("%d shards: no two-shard update drawn at cross fraction %v", shards, crossFrac)
	}
	if st := s.NetStats(); st.Throttled == 0 {
		t.Fatalf("%d shards: no send waited on the egress budget, so ops/s does not measure ordering capacity", shards)
	}
	return float64(procs*workers*updates) / elapsed.Seconds()
}
