package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"moc/internal/checker"
	"moc/internal/monitor"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/workload"
)

// TestSoakAllProtocols drives both store modes (the locking and causal
// protocols soak in their own packages) through randomized multi-object
// workloads across several seeds and validates each run on every layer:
//
//   - Store.Verify (the protocol's own guarantee);
//   - the exact decider (cross-check, runs are small);
//   - the P5.x axiom validator and the streaming monitor;
//   - the consistency hierarchy (a verified level implies all weaker
//     levels).
//
// This is the repository's integration backstop: a regression anywhere
// in the stack (network, broadcast, protocol, recording, reconstruction,
// checker) surfaces here.
func TestSoakAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	type protoCase struct {
		cons       Consistency
		exactCheck func(*testing.T, *VerifyResult)
		monitorLvl monitor.Level
	}
	cases := []protoCase{
		{
			cons: MSequential,
			exactCheck: func(t *testing.T, res *VerifyResult) {
				exact, err := checker.MSequentiallyConsistent(res.History)
				if err != nil {
					t.Fatalf("exact: %v", err)
				}
				if !exact.Admissible {
					t.Fatal("exact m-SC check failed")
				}
			},
			monitorLvl: monitor.MSCLevel,
		},
		{
			cons: MLinearizable,
			exactCheck: func(t *testing.T, res *VerifyResult) {
				exact, err := checker.MLinearizable(res.History)
				if err != nil {
					t.Fatalf("exact: %v", err)
				}
				if !exact.Admissible {
					t.Fatal("exact m-lin check failed")
				}
			},
			monitorLvl: monitor.MLinLevel,
		},
	}

	for _, pc := range cases {
		pc := pc
		t.Run(pc.cons.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 4; seed++ {
				s, err := New(Config{
					Procs: 3, Objects: []string{"x", "y", "z", "w"},
					Consistency: pc.cons, Seed: seed, MaxDelay: time.Millisecond,
				})
				if err != nil {
					t.Fatalf("seed %d: New: %v", seed, err)
				}

				mix := workload.Mix{ReadFrac: 0.4, Span: 2, OpsPerProc: 5}
				plans := mix.Plan(3, 4, rand.New(rand.NewSource(seed)))
				var wg sync.WaitGroup
				errCh := make(chan error, 3)
				for pi := 0; pi < 3; pi++ {
					p, _ := s.Process(pi)
					wg.Add(1)
					go func(plan []workload.Op, p *Process) {
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
							if _, err := p.Exec(pr, ExecOptions{}); err != nil {
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

				res, err := s.Verify()
				if err != nil {
					t.Fatalf("seed %d: Verify: %v", seed, err)
				}
				if !res.OK {
					t.Fatalf("seed %d: %v verification failed", seed, pc.cons)
				}
				pc.exactCheck(t, &res)

				// Hierarchy: anything verified here must be m-causal.
				causal, err := checker.MCausallyConsistent(res.History)
				if err != nil {
					t.Fatalf("seed %d: causal: %v", seed, err)
				}
				if !causal.Consistent {
					t.Fatalf("seed %d: hierarchy violated: %v-verified but not m-causal", seed, pc.cons)
				}

				recs := s.Records()
				sort.Slice(recs, func(i, j int) bool { return recs[i].Resp < recs[j].Resp })
				if v := monitor.ValidateAxioms(recs, 4, pc.monitorLvl); len(v) != 0 {
					t.Fatalf("seed %d: axiom violations: %v", seed, v)
				}
				m := monitor.NewMonitor(4, pc.monitorLvl)
				for _, rec := range recs {
					m.Observe(rec)
				}
				if v := m.Finish(); len(v) != 0 {
					t.Fatalf("seed %d: monitor violations: %v", seed, v)
				}
				s.Close()
			}
		})
	}
}
