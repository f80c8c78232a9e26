package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/oolock"
)

// runE11 compares the three protocol implementations — Figure 4 (m-SC,
// replicated + broadcast), Figure 6 (m-lin, replicated + broadcast +
// query round) and the OO-constraint locking protocol (sharded, no
// broadcast) — on two workloads:
//
//   - contended: every m-operation touches the same object pair;
//   - disjoint: each process works on its own object pair.
//
// Expected shape: the locking protocol's cost tracks *per-object
// contention* — disjoint workloads recover several-fold versus contended
// ones (lock queueing disappears), while its base latency pays one RTT
// per footprint object (sequential ordered acquisition). The broadcast
// protocols are insensitive to which objects are touched — their updates
// serialize through the global total order regardless — so contended and
// disjoint rows are identical for them. This is Section 4's trade-off
// made concrete: WW-constraint systems synchronize globally, OO-
// constraint systems only where operations actually conflict.
func runE11(w io.Writer, quick bool) error {
	const procs = 4
	ops := 16
	delay := 2 * time.Millisecond
	if quick {
		ops = 6
		delay = time.Millisecond
	}

	t := newTable(w)
	t.row("protocol", "workload", "update mean", "ops/s", "verified")
	for _, name := range []string{core.MSequential.String(), core.MLinearizable.String(), lockingName} {
		for _, disjoint := range []bool{false, true} {
			workload := "contended"
			if disjoint {
				workload = "disjoint"
			}
			res, err := runContentionWorkload(name, procs, ops, delay, disjoint)
			if err != nil {
				return err
			}
			t.row(name, workload, res.updateMean.Round(time.Microsecond),
				fmt.Sprintf("%.0f", res.throughput), res.verified)
		}
	}
	t.flush()
	fmt.Fprintln(w, "expected shape: broadcast rows identical across workloads (global serialization);")
	fmt.Fprintln(w, "locking row recovers several-fold from contended to disjoint (per-object queueing only)")
	return nil
}

// lockingName labels the rows of the OO-constraint locking protocol,
// which no core.Store mounts.
const lockingName = "m-linearizable-locking"

type contentionResult struct {
	updateMean time.Duration
	throughput float64
	verified   bool
}

// runContentionWorkload has every process issue ops two-object updates
// — all on one pair, or each on its own pair when disjoint — on the
// protocol a row names: a core.Store for the broadcast protocols,
// internal/oolock directly for the locking one. It verifies the run at
// the protocol's own condition.
func runContentionWorkload(name string, procs, ops int, delay time.Duration, disjoint bool) (contentionResult, error) {
	reg := object.Sequential(2 * procs)
	var mu sync.Mutex // guards recs and updNs
	var exec func(proc int, pr mop.Procedure) error
	var verify func() (core.VerifyResult, error)
	if name == lockingName {
		p, err := oolock.New(oolock.Config{Procs: procs, Reg: reg, Seed: 31, MinDelay: delay, MaxDelay: delay})
		if err != nil {
			return contentionResult{}, err
		}
		defer p.Close()
		var recs []mop.Record // complete once every exec has returned
		exec = func(proc int, pr mop.Procedure) error {
			rec, err := p.Exec(proc, pr, mop.ExecOptions{})
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
			return err
		}
		verify = func() (core.VerifyResult, error) {
			return core.VerifyOO(reg, recs, history.MLinearizableBase)
		}
	} else {
		s, err := core.New(core.Config{
			Procs: procs, Objects: reg.Names(), Consistency: storeConsistency(name),
			Seed: 31, MinDelay: delay, MaxDelay: delay,
		})
		if err != nil {
			return contentionResult{}, err
		}
		defer s.Close()
		exec, verify = storeExec(s), s.Verify
	}

	var updNs []int64
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	start := time.Now()
	for pi := 0; pi < procs; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			x1, x2 := object.ID(0), object.ID(1)
			if disjoint {
				x1, x2 = object.ID(2*pi), object.ID(2*pi+1)
			}
			for i := 0; i < ops; i++ {
				t0 := time.Now()
				err := exec(pi, mop.MAssign{Writes: map[object.ID]object.Value{
					x1: object.Value(pi*1000 + i + 1),
					x2: object.Value(pi*1000 + i + 1),
				}})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				updNs = append(updNs, time.Since(t0).Nanoseconds())
				mu.Unlock()
			}
		}(pi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return contentionResult{}, err
	default:
	}

	res, err := verify()
	if err != nil {
		return contentionResult{}, err
	}
	return contentionResult{
		updateMean: mean(updNs),
		throughput: float64(procs*ops) / elapsed.Seconds(),
		verified:   res.OK,
	}, nil
}

// storeConsistency maps a row label of a broadcast protocol back to the
// store consistency it names.
func storeConsistency(name string) core.Consistency {
	if name == core.MLinearizable.String() {
		return core.MLinearizable
	}
	return core.MSequential
}

// storeExec runs an m-operation of process proc on s at its default
// level.
func storeExec(s *core.Store) func(proc int, pr mop.Procedure) error {
	return func(proc int, pr mop.Procedure) error {
		p, err := s.Process(proc)
		if err == nil {
			_, err = p.Exec(pr, core.ExecOptions{})
		}
		return err
	}
}
