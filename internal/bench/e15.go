package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"moc/internal/core"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/transport"
)

// E15 measures the batched, pipelined update path: closed-loop update
// throughput and latency percentiles as a function of the broadcast
// batch size, over the simulated network and over real loopback TCP.
// Every cell drives the same pipelined workload (MaxInflight worker
// loops per process, update-only); only the batching knobs vary, with
// batch size 1 being exactly the unbatched seed behavior.

// E15Result is one cell of the batch-size sweep.
type E15Result struct {
	Transport string // "sim" or "tcp"
	BatchSize int
	Ops       int
	OpsPerSec float64
	P50, P99  time.Duration
	Mean      time.Duration
	// Flushes/Batches/BatchedUpdates are the abcast.Batcher meters:
	// total flushes, multi-update flushes, and updates riding in them.
	Flushes, Batches, BatchedUpdates int64
	// NetBatches/NetBatchedFrames are the transport writer's coalescing
	// meters (zero on the simulated network).
	NetBatches, NetBatchedFrames int64
}

// e15Params sizes the sweep.
type e15Params struct {
	batchSizes []int
	procs      int
	inflight   int
	opsPerProc int
	window     time.Duration
}

func e15Sizes(quick bool) e15Params {
	p := e15Params{
		batchSizes: []int{1, 2, 4, 8, 16, 32},
		procs:      3,
		inflight:   32,
		opsPerProc: 960,
		window:     200 * time.Microsecond,
	}
	if quick {
		p.batchSizes = []int{1, 8}
		p.opsPerProc = 160
	}
	return p
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

// runE15Cell runs one sweep cell: an update-only closed loop with
// p.inflight synchronous worker loops per process (the pipelining lanes
// admit exactly that many concurrent updates), measuring per-operation
// latency from issue to completion.
func runE15Cell(transportKind string, batch int, p e15Params, seed int64) (E15Result, error) {
	const objects = 8
	names := make([]string, objects)
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
	if batch > 1 {
		cfg.BatchSize = batch
		cfg.BatchWindow = p.window
	}
	var cluster *transport.Cluster
	if transportKind == "tcp" {
		var err error
		cluster, err = transport.NewCluster(p.procs)
		if err != nil {
			return E15Result{}, err
		}
		defer cluster.Close()
		cfg.Links = cluster.Factory()
	} else {
		cfg.MaxDelay = 100 * time.Microsecond
	}
	s, err := core.New(cfg)
	if err != nil {
		return E15Result{}, err
	}
	defer s.Close()

	opsPerWorker := p.opsPerProc / p.inflight
	if opsPerWorker == 0 {
		opsPerWorker = 1
	}
	total := p.procs * p.inflight * opsPerWorker
	latNs := make([][]int64, p.procs*p.inflight)
	errs := make(chan error, p.procs*p.inflight)
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < p.procs; pid++ {
		proc, err := s.Process(pid)
		if err != nil {
			return E15Result{}, err
		}
		for w := 0; w < p.inflight; w++ {
			wg.Add(1)
			slot := pid*p.inflight + w
			go func(pid, w, slot int, proc *core.Process) {
				defer wg.Done()
				ns := make([]int64, 0, opsPerWorker)
				for i := 0; i < opsPerWorker; i++ {
					op := mop.WriteOp{
						X: object.ID((w*opsPerWorker + i) % objects),
						V: object.Value(1000*pid + 10*w + i),
					}
					t0 := time.Now()
					if _, err := proc.Exec(op, core.ExecOptions{}); err != nil {
						errs <- err
						return
					}
					ns = append(ns, time.Since(t0).Nanoseconds())
				}
				latNs[slot] = ns
			}(pid, w, slot, proc)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return E15Result{}, err
	default:
	}

	var all []int64
	for _, ns := range latNs {
		all = append(all, ns...)
	}
	flushes, batches, batched := s.BatchStats()
	net := s.NetStats()
	return E15Result{
		Transport: transportKind,
		BatchSize: batch,
		Ops:       total,
		OpsPerSec: float64(total) / elapsed.Seconds(),
		P50:       percentile(all, 0.50),
		P99:       percentile(all, 0.99),
		Mean:      mean(all),
		Flushes:   flushes, Batches: batches, BatchedUpdates: batched,
		NetBatches: net.Batches, NetBatchedFrames: net.BatchedFrames,
	}, nil
}

// e15Results runs the full sweep, shared by the text and JSON emitters.
func e15Results(quick bool) ([]E15Result, e15Params, error) {
	p := e15Sizes(quick)
	var results []E15Result
	for _, tk := range []string{"sim", "tcp"} {
		for _, batch := range p.batchSizes {
			res, err := runE15Cell(tk, batch, p, 42)
			if err != nil {
				return nil, p, err
			}
			results = append(results, res)
		}
	}
	return results, p, nil
}

// runE15 prints the batch-size sweep.
//
// Expected shape: throughput rises with batch size on both transports —
// one ordered broadcast (and, over TCP, one coalesced socket write)
// carries many updates, so the per-message protocol cost is amortized —
// with ≥ 2x gain by batch 8 over loopback TCP; p50 latency stays within
// the same order because the window only delays an update while its
// batch fills under continuous pipelined load.
func runE15(w io.Writer, quick bool) error {
	results, p, err := e15Results(quick)
	if err != nil {
		return err
	}
	base := make(map[string]float64)
	for _, r := range results {
		if r.BatchSize == 1 {
			base[r.Transport] = r.OpsPerSec
		}
	}
	tb := newTable(w)
	tb.row("transport", "batch", "ops/s", "speedup", "p50", "p99", "flushes", "batches", "batched-upd", "net-batches")
	for _, r := range results {
		speed := "1.00x"
		if b := base[r.Transport]; b > 0 {
			speed = fmt.Sprintf("%.2fx", r.OpsPerSec/b)
		}
		tb.row(r.Transport, r.BatchSize,
			fmt.Sprintf("%.0f", r.OpsPerSec), speed,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.Flushes, r.Batches, r.BatchedUpdates, r.NetBatches)
	}
	tb.flush()
	fmt.Fprintf(w, "procs=%d inflight=%d updates/proc=%d window=%v (batch 1 = unbatched seed path)\n",
		p.procs, p.inflight, p.opsPerProc, p.window)
	fmt.Fprintln(w, "expected shape: ops/s grows with batch size (one ordered broadcast carries many")
	fmt.Fprintln(w, "updates; over TCP the writer additionally coalesces frames), >= 2x by batch 8 on")
	fmt.Fprintln(w, "loopback TCP; p50 stays in the same order under continuous pipelined load")
	return nil
}

// e15JSON emits the sweep as a report, one series per transport.
func e15JSON(quick bool) (Report, error) {
	results, p, err := e15Results(quick)
	if err != nil {
		return Report{}, err
	}
	series := map[string]*Series{}
	var order []string
	for _, r := range results {
		s, ok := series[r.Transport]
		if !ok {
			s = &Series{Name: r.Transport}
			series[r.Transport] = s
			order = append(order, r.Transport)
		}
		s.Points = append(s.Points, map[string]any{
			"batchSize":        r.BatchSize,
			"ops":              r.Ops,
			"opsPerSec":        r.OpsPerSec,
			"p50Ns":            durNs(r.P50),
			"p99Ns":            durNs(r.P99),
			"meanNs":           durNs(r.Mean),
			"flushes":          r.Flushes,
			"batches":          r.Batches,
			"batchedUpdates":   r.BatchedUpdates,
			"netBatches":       r.NetBatches,
			"netBatchedFrames": r.NetBatchedFrames,
		})
	}
	var out []Series
	for _, name := range order {
		out = append(out, *series[name])
	}
	return Report{
		Parameters: map[string]any{
			"consistency": core.MSequential.String(),
			"procs":       p.procs, "inflight": p.inflight,
			"updatesPerProc": p.opsPerProc, "batchSizes": p.batchSizes,
			"windowNs": durNs(p.window), "objects": 8, "seed": 42,
			"transports": []string{"sim", "tcp-loopback"},
		},
		Series: out,
	}, nil
}
