package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"moc/internal/core"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/workload"
)

// latencies aggregates per-operation latencies.
type latencies struct {
	mu      sync.Mutex
	queryNs []int64
	updNs   []int64
}

func (l *latencies) add(query bool, ns int64) {
	l.mu.Lock()
	if query {
		l.queryNs = append(l.queryNs, ns)
	} else {
		l.updNs = append(l.updNs, ns)
	}
	l.mu.Unlock()
}

func mean(ns []int64) time.Duration {
	if len(ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return time.Duration(sum / int64(len(ns)))
}

// MixResult is one row of the E7 table.
type MixResult struct {
	Consistency core.Consistency
	Procs       int
	ReadFrac    float64
	QueryMean   time.Duration
	UpdateMean  time.Duration
	Throughput  float64 // m-operations per second
	QueryMsgs   int64
}

// RunMix drives one protocol configuration through a workload mix and
// measures latency and throughput. Exported for bench_test.go.
func RunMix(cons core.Consistency, procs, objects int, mix workload.Mix, delay time.Duration, seed int64) (MixResult, error) {
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	s, err := core.New(core.Config{
		Procs: procs, Objects: names, Consistency: cons,
		Seed: seed, MinDelay: delay, MaxDelay: delay,
		DisableRecording: true,
	})
	if err != nil {
		return MixResult{}, err
	}
	defer s.Close()

	plans := mix.Plan(procs, objects, rand.New(rand.NewSource(seed)))
	var lat latencies
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	start := time.Now()
	for p := 0; p < procs; p++ {
		proc, err := s.Process(p)
		if err != nil {
			return MixResult{}, err
		}
		wg.Add(1)
		go func(plan []workload.Op, proc *core.Process) {
			defer wg.Done()
			for _, op := range plan {
				var pr mop.Procedure
				if op.Query {
					pr = mop.MultiRead{Xs: op.Objs}
				} else {
					pr = planUpdate(op)
				}
				t0 := time.Now()
				if _, err := proc.Exec(pr, core.ExecOptions{}); err != nil {
					errs <- err
					return
				}
				lat.add(op.Query, time.Since(t0).Nanoseconds())
			}
		}(plans[p], proc)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return MixResult{}, err
	default:
	}

	total := procs * mix.OpsPerProc
	return MixResult{
		Consistency: cons,
		Procs:       procs,
		ReadFrac:    mix.ReadFrac,
		QueryMean:   mean(lat.queryNs),
		UpdateMean:  mean(lat.updNs),
		Throughput:  float64(total) / elapsed.Seconds(),
		QueryMsgs:   s.QueryTraffic().Messages,
	}, nil
}

func planUpdate(op workload.Op) mop.Procedure {
	writes := make(map[object.ID]object.Value, len(op.Objs))
	for i, x := range op.Objs {
		writes[x] = op.Vals[i]
	}
	return mop.MAssign{Writes: writes}
}

// e7Params are the cell dimensions of the E7 cost table.
type e7Params struct {
	delay     time.Duration
	procsList []int
	fracs     []float64
	ops       int
}

func e7Sizes(quick bool) e7Params {
	if quick {
		return e7Params{delay: time.Millisecond, procsList: []int{2, 4}, fracs: []float64{0.5}, ops: 10}
	}
	return e7Params{delay: 2 * time.Millisecond, procsList: []int{2, 4, 8}, fracs: []float64{0.5, 0.9}, ops: 30}
}

// e7Results runs every cell of the cost table. Shared by the text and
// JSON emitters.
func e7Results(quick bool) ([]MixResult, e7Params, error) {
	p := e7Sizes(quick)
	var results []MixResult
	for _, cons := range []core.Consistency{core.MSequential, core.MLinearizable} {
		for _, procs := range p.procsList {
			for _, frac := range p.fracs {
				res, err := RunMix(cons, procs, 8,
					workload.Mix{ReadFrac: frac, Span: 2, OpsPerProc: p.ops}, p.delay, 42)
				if err != nil {
					return nil, p, err
				}
				results = append(results, res)
			}
		}
	}
	return results, p, nil
}

// mixTable prints the E7 cost-model rows.
func mixTable(w io.Writer, results []MixResult) {
	t := newTable(w)
	t.row("consistency", "procs", "read%", "query mean", "update mean", "ops/s", "query msgs")
	for _, res := range results {
		t.row(res.Consistency, res.Procs, int(res.ReadFrac*100),
			res.QueryMean.Round(time.Microsecond),
			res.UpdateMean.Round(time.Microsecond),
			fmt.Sprintf("%.0f", res.Throughput),
			res.QueryMsgs)
	}
	t.flush()
}

// runE7 prints the protocol cost table: for each (consistency, procs,
// read fraction), mean query latency, mean update latency and
// throughput, under a fixed per-message delay so round trips are visible.
//
// Expected shape: m-SC query latency ~ 0 (local) regardless of n; m-lin
// query latency ~ 2x the one-way delay (a round trip) and grows slightly
// with n (stragglers); update latency comparable for both.
func runE7(w io.Writer, quick bool) error {
	results, _, err := e7Results(quick)
	if err != nil {
		return err
	}
	mixTable(w, results)
	fmt.Fprintln(w, "expected shape: m-sequential query latency ~0 and 0 query msgs;")
	fmt.Fprintln(w, "m-linearizable query latency ~1 RTT with 2n msgs per query; update latency similar for both")
	return nil
}

// e7JSON emits the cost table as a report, one series per consistency.
func e7JSON(quick bool) (Report, error) {
	results, p, err := e7Results(quick)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Parameters: map[string]any{
			"delayNs": durNs(p.delay), "procs": p.procsList, "readFracs": p.fracs,
			"opsPerProc": p.ops, "objects": 8, "span": 2, "seed": 42,
		},
		Series: mixSeries(results),
	}, nil
}

// mixSeries groups MixResults into one series per consistency.
func mixSeries(results []MixResult) []Series {
	byCons := map[string]*Series{}
	var order []string
	for _, r := range results {
		name := r.Consistency.String()
		s, ok := byCons[name]
		if !ok {
			s = &Series{Name: name}
			byCons[name] = s
			order = append(order, name)
		}
		s.Points = append(s.Points, mixPoint(r))
	}
	out := make([]Series, 0, len(order))
	for _, name := range order {
		out = append(out, *byCons[name])
	}
	return out
}
