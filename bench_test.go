// Benchmarks: one per reproduced table/figure (see DESIGN.md's
// per-experiment index). Each benchmark measures the experiment's core
// kernel; the full formatted tables are regenerated by cmd/mocbench.
package moc_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"moc/internal/checker"
	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/monitor"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/oolock"
	"moc/internal/serial"
	"moc/internal/workload"
)

// BenchmarkE1Fig1Relations measures building Figure 1's history and
// evaluating every relation the paper reads off it.
func BenchmarkE1Fig1Relations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := history.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		h := fig.H
		if !h.ProcessOrderRel(fig.Alpha, fig.Beta) ||
			!h.ReadsFromRel(fig.Eta, fig.Delta) ||
			!h.RealTimeRel(fig.Alpha, fig.Mu) ||
			!h.ObjectOrderRel(fig.Eta, fig.Beta) {
			b.Fatal("figure relations broken")
		}
	}
}

// BenchmarkE2Fig23RWClosure measures the Figure 2/3 pipeline: base
// relation, ~rw closure (D4.11-D4.12) and witness extraction.
func BenchmarkE2Fig23RWClosure(b *testing.B) {
	fig, err := history.Figure2()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := checker.AdmissibleUnderConstraint(fig.H, fig.WW, checker.WW)
		if err != nil || !res.Admissible {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkE3ExactChecker measures the exponential exact decider on the
// adversarial torn-reader family (Theorems 1-2).
func BenchmarkE3ExactChecker(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		h, err := workload.TornReaderFamily(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("writers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := checker.MSequentiallyConsistent(h)
				if err != nil || res.Admissible {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkE3ConstrainedChecker measures the polynomial Theorem 7 check
// on the same instances (given the WW synchronization order).
func BenchmarkE3ConstrainedChecker(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		h, err := workload.TornReaderFamily(n)
		if err != nil {
			b.Fatal(err)
		}
		sync := checker.SyncFromUpdates(h, h.Updates())
		b.Run(fmt.Sprintf("writers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := checker.AdmissibleUnderConstraint(h, sync, checker.WW)
				if err != nil || res.Admissible {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkE3SingleObjectPoly measures Misra's polynomial single-object
// linearizability decision.
func BenchmarkE3SingleObjectPoly(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	reg := object.MustRegistry("x")
	bld := history.NewBuilder(reg)
	var clock int64
	val := object.Value(0)
	for i := 0; i < 30; i++ {
		if rng.Intn(2) == 0 {
			val++
			bld.Add(i%3, clock, clock+1, history.W(0, val))
		} else {
			bld.Add(i%3, clock, clock+1, history.R(0, val))
		}
		clock += 2
	}
	h, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.SingleObjectLinearizable(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Theorem7 measures one Theorem 7 round trip (generate a
// constrained run, decide polynomially).
func BenchmarkE4Theorem7(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < b.N; i++ {
		run, err := workload.GenerateConstrainedRun(workload.ConstrainedRunConfig{
			Procs: 3, Objects: 3, OpsPerProc: 4, ReadFrac: 0.5, MaxSpan: 2,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		sync := checker.SyncFromUpdates(run.H, run.UpdateOrder)
		res, err := checker.AdmissibleUnderConstraint(run.H, sync, checker.WW)
		if err != nil || !res.Admissible {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

func protocolStore(b *testing.B, cons core.Consistency) *core.Store {
	b.Helper()
	s, err := core.New(core.Config{
		Procs: 3, Objects: []string{"x", "y", "z", "w"},
		Consistency: cons, Seed: 5, DisableRecording: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkE5MSCProtocol measures one update m-operation through the
// Figure 4 protocol (A1 broadcast + A2 apply at the issuer).
func BenchmarkE5MSCProtocol(b *testing.B) {
	s := protocolStore(b, core.MSequential)
	p, err := s.Process(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Write(0, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6MLinProtocol measures one update m-operation through the
// Figure 6 protocol.
func BenchmarkE6MLinProtocol(b *testing.B) {
	s := protocolStore(b, core.MLinearizable)
	p, err := s.Process(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Write(0, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7QueryLatency compares the query paths: local (m-SC, A3)
// versus query-all-and-merge (m-lin, A3-A6).
func BenchmarkE7QueryLatency(b *testing.B) {
	for _, cons := range []core.Consistency{core.MSequential, core.MLinearizable} {
		b.Run(cons.String(), func(b *testing.B) {
			s := protocolStore(b, cons)
			p, err := s.Process(0)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Write(0, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.MultiRead(0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7UpdateLatency compares the (identical) update paths.
func BenchmarkE7UpdateLatency(b *testing.B) {
	for _, cons := range []core.Consistency{core.MSequential, core.MLinearizable} {
		b.Run(cons.String(), func(b *testing.B) {
			s := protocolStore(b, cons)
			p, err := s.Process(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.MAssign(map[object.ID]object.Value{0: int64(i), 1: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Reduction measures the Theorem 2 reduction end to end:
// schedule -> history -> strict view serializability decision.
func BenchmarkE8Reduction(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	schedules := make([]*serial.Schedule, 32)
	for i := range schedules {
		schedules[i] = workload.RandomSchedule(rng, 4, 3, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := schedules[i%len(schedules)].StrictViewSerializable(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9RelevantOnly compares query payload cost of whole-copy
// (Figure 6 verbatim) versus relevant-only responses; bytes/query is
// reported as a custom metric.
func BenchmarkE9RelevantOnly(b *testing.B) {
	for _, relevant := range []bool{false, true} {
		name := "whole-copy"
		if relevant {
			name = "relevant-only"
		}
		b.Run(name, func(b *testing.B) {
			names := make([]string, 64)
			for i := range names {
				names[i] = fmt.Sprintf("x%d", i)
			}
			s, err := core.New(core.Config{
				Procs: 3, Objects: names, Consistency: core.MLinearizable,
				Seed: 7, RelevantOnly: relevant, DisableRecording: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			p, err := s.Process(0)
			if err != nil {
				b.Fatal(err)
			}
			before := s.QueryTraffic().Bytes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.MultiRead(object.ID(i%64), object.ID((i+1)%64)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			bytes := s.QueryTraffic().Bytes - before
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/query")
		})
	}
}

// BenchmarkE10DCASVsAggregate compares a native two-object DCAS with the
// aggregate-object emulation (every operation spans all objects).
func BenchmarkE10DCASVsAggregate(b *testing.B) {
	const objs = 32
	names := make([]string, objs)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	newStore := func(b *testing.B) *core.Store {
		s, err := core.New(core.Config{
			Procs: 2, Objects: names, Consistency: core.MLinearizable,
			Seed: 9, RelevantOnly: true, DisableRecording: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(s.Close)
		return s
	}
	b.Run("native", func(b *testing.B) {
		s := newStore(b)
		p, _ := s.Process(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vals, err := p.MultiRead(0, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.DCAS(0, 1, vals[0], vals[1], vals[0]+1, vals[1]+1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("aggregate", func(b *testing.B) {
		s := newStore(b)
		p, _ := s.Process(0)
		all := make([]object.ID, objs)
		for i := range all {
			all[i] = object.ID(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vals, err := p.MultiRead(all...)
			if err != nil {
				b.Fatal(err)
			}
			writes := make(map[object.ID]object.Value, objs)
			for j, x := range all {
				v := vals[j]
				if j < 2 {
					v++
				}
				writes[x] = v
			}
			if err := p.MAssign(writes); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBroadcast compares the two atomic-broadcast
// implementations on the update path.
func BenchmarkAblationBroadcast(b *testing.B) {
	for _, kind := range []core.BroadcastKind{core.SequencerBroadcast, core.LamportBroadcast} {
		name := "sequencer"
		if kind == core.LamportBroadcast {
			name = "lamport"
		}
		b.Run(name, func(b *testing.B) {
			s, err := core.New(core.Config{
				Procs: 4, Objects: []string{"x"}, Consistency: core.MSequential,
				Broadcast: kind, Seed: 11, DisableRecording: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			p, _ := s.Process(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Write(0, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCheckerHeuristic compares the exact decider's search
// variants on the torn-reader family.
func BenchmarkAblationCheckerHeuristic(b *testing.B) {
	h, err := workload.TornReaderFamily(6)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts checker.Options
	}{
		{"time-order+memo", checker.Options{Heuristic: checker.TimeOrder}},
		{"id-order+memo", checker.Options{Heuristic: checker.IDOrder}},
		{"no-memo", checker.Options{Heuristic: checker.TimeOrder, DisableMemo: true, MaxNodes: 5_000_000}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := v.opts
				res, err := checker.Decide(h, history.MSequentialBase, &opts)
				if err != nil && err != checker.ErrBudget {
					b.Fatal(err)
				}
				if res.Admissible {
					b.Fatal("torn family admissible")
				}
			}
		})
	}
}

// BenchmarkRecorder measures the m-operation recording fast path.
func BenchmarkRecorder(b *testing.B) {
	values := make([]object.Value, 8)
	pr := mop.DCAS{X1: 0, X2: 1, Old1: 0, Old2: 0, New1: 0, New2: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := mop.NewRecorder(values, pr)
		pr.Run(rec)
		if rec.Err() != nil {
			b.Fatal(rec.Err())
		}
	}
}

// BenchmarkHistoryBuild measures history reconstruction from records.
func BenchmarkHistoryBuild(b *testing.B) {
	s, err := core.New(core.Config{
		Procs: 3, Objects: []string{"x", "y"}, Consistency: core.MLinearizable, Seed: 13,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	p, _ := s.Process(0)
	for i := 0; i < 50; i++ {
		if err := p.Write(object.ID(i%2), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.History(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11LockingProtocol measures one update m-operation through the
// OO-constraint locking protocol (lock, apply, release).
func BenchmarkE11LockingProtocol(b *testing.B) {
	p, err := oolock.New(oolock.Config{Procs: 3, Reg: object.Sequential(4), Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(0, mop.MAssign{Writes: map[object.ID]object.Value{0: int64(i), 1: int64(i)}}, mop.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorObserve measures the streaming monitor's per-record
// cost.
func BenchmarkMonitorObserve(b *testing.B) {
	s, err := core.New(core.Config{
		Procs: 2, Objects: []string{"x", "y"}, Consistency: core.MLinearizable, Seed: 19,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, _ := s.Process(0)
	for i := 0; i < 64; i++ {
		if err := p.Write(object.ID(i%2), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	recs := s.Records()
	s.Close()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Resp < recs[j].Resp })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := monitor.NewMonitor(2, monitor.MLinLevel)
		for _, rec := range recs {
			m.Observe(rec)
		}
		if v := m.Finish(); len(v) != 0 {
			b.Fatalf("violations: %v", v)
		}
	}
}

// BenchmarkAxiomValidation measures the batch P5.x validator.
func BenchmarkAxiomValidation(b *testing.B) {
	s, err := core.New(core.Config{
		Procs: 2, Objects: []string{"x", "y"}, Consistency: core.MLinearizable, Seed: 23,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, _ := s.Process(0)
	for i := 0; i < 64; i++ {
		if err := p.Write(object.ID(i%2), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	recs := s.Records()
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := monitor.ValidateAxioms(recs, 2, monitor.MLinLevel); len(v) != 0 {
			b.Fatalf("violations: %v", v)
		}
	}
}
