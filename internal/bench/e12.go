package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"moc/internal/causal"
	"moc/internal/checker"
	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
)

// runE12 measures the consistency hierarchy empirically: the same racing
// workload is run on each protocol, and every recorded history is
// checked against all three conditions with the exact deciders. The
// expected inclusion chain (Section 2.3, plus the causal extension):
//
//	m-linearizable ⟹ m-sequentially consistent ⟹ m-causal
//
// and each protocol should achieve exactly its level: the causal
// protocol passes m-causal always but m-SC only sometimes (concurrent
// updates observed in different orders); the m-SC protocol passes m-SC
// always but m-lin only sometimes (stale local queries); the m-lin
// protocols pass everything. Cost falls as guarantees weaken: causal
// updates are local (no round trip at all).
func runE12(w io.Writer, quick bool) error {
	trials := 30
	if quick {
		trials = 8
	}
	type row struct {
		name                  string
		causalOK, scOK, linOK int
		updateMean            time.Duration
	}
	var rows []row
	for _, name := range []string{causalName, core.MSequential.String(), core.MLinearizable.String()} {
		r := row{name: name}
		var updTotal time.Duration
		var updCount int
		for trial := 0; trial < trials; trial++ {
			h, updDur, n, err := runRacingTrial(name, int64(trial))
			if err != nil {
				return err
			}
			updTotal += updDur
			updCount += n

			causal, err := checker.MCausallyConsistent(h)
			if err != nil {
				return err
			}
			sc, err := checker.MSequentiallyConsistent(h)
			if err != nil {
				return err
			}
			lin, err := checker.MLinearizable(h)
			if err != nil {
				return err
			}
			if sc.Admissible && !causal.Consistent {
				return fmt.Errorf("bench: hierarchy violated: m-SC but not m-causal")
			}
			if lin.Admissible && !sc.Admissible {
				return fmt.Errorf("bench: hierarchy violated: m-lin but not m-SC")
			}
			if causal.Consistent {
				r.causalOK++
			}
			if sc.Admissible {
				r.scOK++
			}
			if lin.Admissible {
				r.linOK++
			}
		}
		if updCount > 0 {
			r.updateMean = updTotal / time.Duration(updCount)
		}
		rows = append(rows, r)
	}

	t := newTable(w)
	t.row("protocol", "m-causal", "m-SC", "m-lin", "update mean")
	for _, r := range rows {
		t.row(r.name,
			fmt.Sprintf("%d/%d", r.causalOK, trials),
			fmt.Sprintf("%d/%d", r.scOK, trials),
			fmt.Sprintf("%d/%d", r.linOK, trials),
			r.updateMean.Round(time.Microsecond))
	}
	t.flush()
	if rows[0].causalOK != trials || rows[1].scOK != trials || rows[2].linOK != trials {
		return fmt.Errorf("bench: a protocol failed its own guarantee")
	}
	fmt.Fprintln(w, "expected shape: each protocol scores 100% at its own level; the columns to")
	fmt.Fprintln(w, "its right drop below 100%; update latency falls as guarantees weaken")
	return nil
}

// causalName labels the rows of the m-causal protocol, which no
// core.Store mounts.
const causalName = "m-causal"

// runRacingTrial runs the E12 racing scenario on the protocol a row
// names — internal/causal directly, or a core.Store: two concurrent
// writers of one object plus two polling readers — the scenario that
// separates all three conditions. Returns the history, total update
// latency and update count.
func runRacingTrial(name string, seed int64) (h *history.History, updDur time.Duration, updCount int, err error) {
	const procs = 4
	reg := object.Sequential(1)
	var mu sync.Mutex // guards recs, updDur and updCount
	var exec func(proc int, pr mop.Procedure) error
	var build func() (*history.History, error)
	if name == causalName {
		p, err := causal.New(causal.Config{Procs: procs, Reg: reg, Seed: seed, MaxDelay: 10 * time.Millisecond})
		if err != nil {
			return nil, 0, 0, err
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
		build = func() (*history.History, error) {
			h, _, err := core.BuildHistory(reg, recs)
			return h, err
		}
	} else {
		s, err := core.New(core.Config{
			Procs: procs, Objects: reg.Names(), Consistency: storeConsistency(name),
			Seed: seed, MaxDelay: 10 * time.Millisecond,
		})
		if err != nil {
			return nil, 0, 0, err
		}
		defer s.Close()
		exec, build = storeExec(s), s.History
	}

	var wg sync.WaitGroup
	errCh := make(chan error, procs)
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			t0 := time.Now()
			if err := exec(wr, mop.WriteOp{X: 0, V: object.Value(wr + 1)}); err != nil {
				errCh <- err
				return
			}
			mu.Lock()
			updDur += time.Since(t0)
			updCount++
			mu.Unlock()
		}(wr)
	}
	for r := 2; r < procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := exec(r, mop.ReadOp{X: 0}); err != nil {
					errCh <- err
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, 0, 0, err
	default:
	}
	h, err = build()
	return h, updDur, updCount, err
}
