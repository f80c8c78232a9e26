package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/core"
	"moc/internal/monitor"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/object"
	"moc/internal/transport"
	"moc/internal/verify"
	"moc/internal/workload"
)

// E16 measures what sharding the object space actually buys: ordering
// capacity. Every cell drives the same closed-loop, shard-affine update
// workload while each lane coordinator's egress is held to a fixed
// modeled NIC budget — network.Faults.Bandwidth on the simulated
// network, transport.Faults.Bandwidth (the same token-bucket model on
// real sockets) over loopback TCP. A single total order funnels every
// update's dissemination through one coordinator NIC; K shards spread
// it over K coordinators, so single-shard-op throughput scales with the
// shard count until the issuing processes (or the shared CPU) run out.
// The egress budget is what makes the measurement honest on a
// single-core host: wall-clock CPU parallelism cannot scale there, but
// ordering capacity — the resource the ROADMAP names as the scaling
// cap, and the one a real deployment exhausts first — can, because it
// is priced in modeled time that the benchmark never CPU-saturates.
//
// A cross-shard penalty cell repeats the widest sweep point with a
// fraction of two-shard m-operations (the ticket/commit merge path),
// and a recorded verification cell replays a mixed sharded workload
// with history capture on, requiring the unchanged exact checker
// (Store.Verify) and the mocmon pipeline (verify.Pipeline, the live
// incremental checker) to accept it with zero violations.

// E16Result is one cell of the shard-count sweep.
type E16Result struct {
	Transport string // "sim" or "tcp"
	Shards    int
	CrossFrac float64 // fraction of eligible ops spanning two shards
	Ops       int
	CrossOps  int // ops that actually spanned two shards
	OpsPerSec float64
	P50, P99  time.Duration
	Mean      time.Duration
	// Throttled counts sends that waited on the modeled egress NIC —
	// nonzero everywhere here, since the budget is what binds.
	Throttled int64
}

// e16Params sizes the sweep.
type e16Params struct {
	shardCounts  []int
	procs        int
	objects      int
	inflight     int
	opsPerWorker int
	crossFrac    float64       // the penalty cell's two-shard fraction
	bandwidth    int64         // modeled egress budget, bytes/s per NIC
	maxDelay     time.Duration // sim propagation delay bound
	runs         int           // best-of-N per cell
}

func e16Sizes(quick bool) e16Params {
	p := e16Params{
		shardCounts:  []int{1, 2, 4, 8},
		procs:        4,
		objects:      16,
		inflight:     16,
		opsPerWorker: 40,
		crossFrac:    0.10,
		bandwidth:    300_000,
		maxDelay:     100 * time.Microsecond,
		runs:         2,
	}
	if quick {
		p.shardCounts = []int{1, 4}
		p.opsPerWorker = 12
		p.runs = 1
	}
	return p
}

// runE16Cell runs one sweep cell: an update-only closed loop of
// p.inflight worker loops per process against the process's home
// shard's objects. Process p's home lane is (p+1) mod shards — offset
// so that over TCP no process is colocated with its own lane's
// coordinator node (lane s's coordinator endpoint lives on node s
// here): a colocated issuer's updates would complete through the
// node-local delivery path without ever crossing the throttled wire,
// and the cell would measure CPU, not ordering capacity. With
// crossFrac > 0, workers whose home shard has an upward neighbor
// additionally issue that fraction of two-shard MAssigns spanning
// (home, home+1). The span is upward because the recorded cells used
// it: a session anchor once compressed to the lowest involved shard,
// and a downward span then promoted every later single-shard update.
// Anchors now keep the cross operation's whole lane set, so either
// direction leaves the configured fraction as it is; keeping the upward
// span keeps BENCH_E16.json comparable.
func runE16Cell(transportKind string, shards int, crossFrac float64, p e16Params, seed int64) (E16Result, error) {
	names := make([]string, p.objects)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	cfg := core.Config{
		Procs:            p.procs,
		Objects:          names,
		Consistency:      core.MSequential,
		Seed:             seed,
		DisableRecording: true,
		MaxInflight:      p.inflight,
	}
	if shards > 1 {
		cfg.Shards = shards
	}
	var cluster *transport.Cluster
	if transportKind == "tcp" {
		var err error
		cluster, err = transport.NewFaultyCluster(p.procs, transport.Faults{Seed: seed, Bandwidth: p.bandwidth})
		if err != nil {
			return E16Result{}, err
		}
		defer cluster.Close()
		cfg.Links = cluster.Factory()
	} else {
		cfg.MaxDelay = p.maxDelay
		cfg.Faults = &network.Faults{Bandwidth: p.bandwidth}
	}
	s, err := core.New(cfg)
	if err != nil {
		return E16Result{}, err
	}
	defer s.Close()

	k := shards
	if k < 1 {
		k = 1
	}
	total := p.procs * p.inflight * p.opsPerWorker
	latNs := make([][]int64, p.procs*p.inflight)
	var crossOps atomic.Int64
	errs := make(chan error, p.procs*p.inflight)
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < p.procs; pid++ {
		proc, err := s.Process(pid)
		if err != nil {
			return E16Result{}, err
		}
		home := (pid + 1) % k
		var pool []object.ID
		for x := 0; x < p.objects; x++ {
			if x%k == home {
				pool = append(pool, object.ID(x))
			}
		}
		var foreign []object.ID
		if crossFrac > 0 && home+1 < k {
			for x := 0; x < p.objects; x++ {
				if x%k == home+1 {
					foreign = append(foreign, object.ID(x))
				}
			}
		}
		for w := 0; w < p.inflight; w++ {
			wg.Add(1)
			slot := pid*p.inflight + w
			go func(pid, w, slot int, proc *core.Process, pool, foreign []object.ID) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(1000*slot)))
				ns := make([]int64, 0, p.opsPerWorker)
				for i := 0; i < p.opsPerWorker; i++ {
					x := pool[(w*p.opsPerWorker+i)%len(pool)]
					v := object.Value(1000*pid + 10*w + i)
					var op mop.Procedure = mop.WriteOp{X: x, V: v}
					if len(foreign) > 0 && rng.Float64() < crossFrac {
						y := foreign[rng.Intn(len(foreign))]
						op = mop.MAssign{Writes: map[object.ID]object.Value{x: v, y: v}}
						crossOps.Add(1)
					}
					t0 := time.Now()
					if _, err := proc.Exec(op, core.ExecOptions{}); err != nil {
						errs <- err
						return
					}
					ns = append(ns, time.Since(t0).Nanoseconds())
				}
				latNs[slot] = ns
			}(pid, w, slot, proc, pool, foreign)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return E16Result{}, err
	default:
	}

	var all []int64
	for _, ns := range latNs {
		all = append(all, ns...)
	}
	return E16Result{
		Transport: transportKind,
		Shards:    shards,
		CrossFrac: crossFrac,
		Ops:       total,
		CrossOps:  int(crossOps.Load()),
		OpsPerSec: float64(total) / elapsed.Seconds(),
		P50:       percentile(all, 0.50),
		P99:       percentile(all, 0.99),
		Mean:      mean(all),
		Throttled: s.NetStats().Throttled,
	}, nil
}

// percentile returns the q-quantile of ns (nearest-rank on a sorted
// copy), zero when empty.
func percentile(ns []int64, q float64) time.Duration {
	if len(ns) == 0 {
		return 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return time.Duration(sorted[idx])
}

// e16BestOf reruns a cell and keeps the highest-throughput run: the
// modeled egress budget sets a ceiling, so noise only subtracts.
func e16BestOf(transportKind string, shards int, crossFrac float64, p e16Params) (E16Result, error) {
	var best E16Result
	for r := 0; r < p.runs; r++ {
		res, err := runE16Cell(transportKind, shards, crossFrac, p, 42+int64(r))
		if err != nil {
			return E16Result{}, err
		}
		if r == 0 || res.OpsPerSec > best.OpsPerSec {
			best = res
		}
	}
	return best, nil
}

// E16Verified is the recorded verification cell's outcome.
type E16Verified struct {
	Ops          int
	CrossOps     int
	Accepted     bool // Store.Verify: the unchanged exact checker
	Violations   int  // verify.Pipeline: the live mocmon engine
	ShardSpec    string
	CheckerNote  string
	PipelineNote string
}

// runE16Verified replays a mixed sharded workload (queries, multi-object
// updates, downward cross-shard spans, m-SC reads ordered through the
// group) with recording on, then requires acceptance twice over: by
// the exact admissibility checker behind Store.Verify, and by
// the incremental online checker behind mocmon (verify.Pipeline with
// the records fed in response order, exactly like moccheck -stream).
func runE16Verified(quick bool) (E16Verified, error) {
	const shards, procs, objects = 4, 4, 16
	opsPerProc := 60
	if quick {
		opsPerProc = 24
	}
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	s, err := core.New(core.Config{
		Procs:       procs,
		Objects:     names,
		Consistency: core.MSequential,
		Seed:        7,
		Shards:      shards,
		MaxDelay:    200 * time.Microsecond,
	})
	if err != nil {
		return E16Verified{}, err
	}
	defer s.Close()

	mix := workload.ShardMix{ReadFrac: 0.3, Span: 2, OpsPerProc: opsPerProc, Shards: shards, CrossFrac: 0.2}
	plans := mix.Plan(procs, objects, rand.New(rand.NewSource(7)))
	cross := 0
	for _, plan := range plans {
		for _, op := range plan {
			shardsSeen := map[int]bool{}
			for _, x := range op.Objs {
				shardsSeen[int(x)%shards] = true
			}
			if len(shardsSeen) > 1 {
				cross++
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	for pid := range plans {
		proc, err := s.Process(pid)
		if err != nil {
			return E16Verified{}, err
		}
		wg.Add(1)
		go func(proc *core.Process, plan []workload.Op) {
			defer wg.Done()
			for _, op := range plan {
				var pr mop.Procedure
				if op.Query {
					pr = mop.MultiRead{Xs: op.Objs}
				} else {
					writes := make(map[object.ID]object.Value, len(op.Objs))
					for i, x := range op.Objs {
						writes[x] = op.Vals[i]
					}
					pr = mop.MAssign{Writes: writes}
				}
				if _, err := proc.Exec(pr, core.ExecOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(proc, plans[pid])
	}
	wg.Wait()
	select {
	case err := <-errs:
		return E16Verified{}, err
	default:
	}

	out := E16Verified{Ops: procs * opsPerProc, CrossOps: cross, ShardSpec: s.ShardSpec()}
	res, err := s.Verify()
	if err != nil {
		return E16Verified{}, err
	}
	out.Accepted = res.OK
	out.CheckerNote = fmt.Sprintf("legal witness of %d events", len(res.Witness))
	if !res.OK {
		return out, fmt.Errorf("bench: E16 sharded history rejected by the exact checker")
	}

	recs := s.Records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Resp < recs[j].Resp })
	pipe := verify.NewPipeline(verify.PipelineConfig{
		NumObjects: objects,
		Level:      monitor.MSCLevel,
		Shards:     shards,
	})
	for _, rec := range recs {
		pipe.Observe(rec)
	}
	vs := pipe.Finish()
	out.Violations = len(vs)
	if len(vs) > 0 {
		out.PipelineNote = vs[0].String()
		return out, fmt.Errorf("bench: E16 sharded history rejected by the mocmon pipeline: %d violations, first: %s", len(vs), vs[0])
	}
	return out, nil
}

// e16Results runs the full sweep (scaling rows, then the cross-shard
// penalty cell per transport at the widest usable shard count), shared
// by the text and JSON emitters.
func e16Results(quick bool) ([]E16Result, E16Verified, e16Params, error) {
	p := e16Sizes(quick)
	var results []E16Result
	for _, tk := range []string{"sim", "tcp"} {
		for _, k := range p.shardCounts {
			res, err := e16BestOf(tk, k, 0, p)
			if err != nil {
				return nil, E16Verified{}, p, err
			}
			results = append(results, res)
		}
		// The penalty cell: widest shard count that the processes can
		// still load (lanes beyond the issuing processes sit idle).
		penalty := p.procs
		for _, k := range p.shardCounts {
			if k <= p.procs && k > 1 {
				penalty = k
			}
		}
		res, err := e16BestOf(tk, penalty, p.crossFrac, p)
		if err != nil {
			return nil, E16Verified{}, p, err
		}
		results = append(results, res)
	}
	ver, err := runE16Verified(quick)
	if err != nil {
		return results, ver, p, err
	}
	return results, ver, p, nil
}

// runE16 prints the shard-count sweep.
//
// Expected shape: single-shard-op throughput scales near-linearly in
// the shard count on both transports — every update is disseminated by
// its lane's coordinator, so the binding resource is coordinator egress
// and K lanes have K coordinator NICs — with >= 2.5x at 4 shards over
// the 1-shard baseline, then a plateau once lanes outnumber the issuing
// processes. The cross-shard cell pays for tickets and commits on two
// lanes plus the apply barrier, so it lands below its all-single
// counterpart but well above the 1-shard baseline: the merge taxes the
// operations that need it without serializing the lanes.
func runE16(w io.Writer, quick bool) error {
	results, ver, p, err := e16Results(quick)
	if err != nil {
		return err
	}
	base := make(map[string]float64)
	for _, r := range results {
		if r.Shards == 1 && r.CrossFrac == 0 {
			base[r.Transport] = r.OpsPerSec
		}
	}
	tb := newTable(w)
	tb.row("transport", "shards", "cross", "ops/s", "speedup", "p50", "p99", "cross-ops", "throttled")
	for _, r := range results {
		speed := "1.00x"
		if b := base[r.Transport]; b > 0 {
			speed = fmt.Sprintf("%.2fx", r.OpsPerSec/b)
		}
		tb.row(r.Transport, r.Shards,
			fmt.Sprintf("%.0f%%", 100*r.CrossFrac),
			fmt.Sprintf("%.0f", r.OpsPerSec), speed,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.CrossOps, r.Throttled)
	}
	tb.flush()
	fmt.Fprintf(w, "procs=%d objects=%d inflight=%d updates/worker=%d egress=%dB/s (modeled per-NIC budget)\n",
		p.procs, p.objects, p.inflight, p.opsPerWorker, p.bandwidth)
	fmt.Fprintf(w, "verified cell: %d recorded ops (%d cross-shard) on %s — exact checker accepted=%v, mocmon pipeline violations=%d\n",
		ver.Ops, ver.CrossOps, ver.ShardSpec, ver.Accepted, ver.Violations)
	fmt.Fprintln(w, "expected shape: ops/s grows near-linearly with the shard count (each lane's")
	fmt.Fprintln(w, "coordinator disseminates on its own egress budget), >= 2.5x at 4 shards on both")
	fmt.Fprintln(w, "transports, plateauing once lanes outnumber the issuing processes; the")
	fmt.Fprintln(w, "cross-shard cell sits below its all-single counterpart but far above 1 shard")
	return nil
}

// e16JSON emits the sweep as a report: one series per transport for the
// scaling rows, one per transport for the cross-shard penalty cell.
func e16JSON(quick bool) (Report, error) {
	results, ver, p, err := e16Results(quick)
	if err != nil {
		return Report{}, err
	}
	series := map[string]*Series{}
	var order []string
	for _, r := range results {
		name := r.Transport
		if r.CrossFrac > 0 {
			name += "-cross"
		}
		s, ok := series[name]
		if !ok {
			s = &Series{Name: name}
			series[name] = s
			order = append(order, name)
		}
		s.Points = append(s.Points, map[string]any{
			"shards":    r.Shards,
			"crossFrac": r.CrossFrac,
			"ops":       r.Ops,
			"crossOps":  r.CrossOps,
			"opsPerSec": r.OpsPerSec,
			"p50Ns":     durNs(r.P50),
			"p99Ns":     durNs(r.P99),
			"meanNs":    durNs(r.Mean),
			"throttled": r.Throttled,
		})
	}
	var out []Series
	for _, name := range order {
		out = append(out, *series[name])
	}
	return Report{
		Parameters: map[string]any{
			"consistency": core.MSequential.String(),
			"procs":       p.procs, "objects": p.objects,
			"inflight": p.inflight, "updatesPerWorker": p.opsPerWorker,
			"shardCounts": p.shardCounts, "crossFrac": p.crossFrac,
			"egressBytesPerSec": p.bandwidth,
			"maxDelayNs":        durNs(p.maxDelay),
			"runsPerCell":       p.runs,
			"transports":        []string{"sim", "tcp-loopback"},
			"verified": map[string]any{
				"ops":                    ver.Ops,
				"crossOps":               ver.CrossOps,
				"shardSpec":              ver.ShardSpec,
				"exactCheckerAccepted":   ver.Accepted,
				"mocmonViolations":       ver.Violations,
				"mocmonPipelineLevel":    "msc",
				"recordedFeedOrder":      "response order (moccheck -stream discipline)",
				"exactCheckerConclusion": ver.CheckerNote,
			},
		},
		Series: out,
	}, nil
}
