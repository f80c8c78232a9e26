package core

import (
	"sync"
	"testing"
	"time"

	"moc/internal/object"
)

// TestStressEightProcesses scales each protocol to 8 processes × 24
// m-operations under randomized delays and verifies the result with the
// polynomial procedure (the exact decider would be too slow at this
// size — which is itself the paper's point).
func TestStressEightProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		cons := cons
		t.Run(cons.String(), func(t *testing.T) {
			t.Parallel()
			const procs = 8
			names := make([]string, 6)
			for i := range names {
				names[i] = string(rune('a' + i))
			}
			s, err := New(Config{
				Procs: procs, Objects: names, Consistency: cons,
				Seed: 77, MaxDelay: 500 * time.Microsecond,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer s.Close()

			var wg sync.WaitGroup
			errCh := make(chan error, procs)
			for pi := 0; pi < procs; pi++ {
				p, _ := s.Process(pi)
				wg.Add(1)
				go func(pi int, p *Process) {
					defer wg.Done()
					for j := 0; j < 24; j++ {
						var err error
						switch j % 3 {
						case 0:
							err = p.MAssign(map[object.ID]object.Value{
								object.ID((pi + j) % 6):     object.Value(pi*1000 + j + 1),
								object.ID((pi + j + 1) % 6): object.Value(pi*1000 + j + 500),
							})
						case 1:
							_, err = p.MultiRead(object.ID(j%6), object.ID((j+2)%6))
						default:
							_, err = p.CAS(object.ID(j%6), 0, object.Value(pi*1000+j+900))
						}
						if err != nil {
							errCh <- err
							return
						}
					}
				}(pi, p)
			}
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}

			res, err := s.Verify()
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if !res.OK {
				t.Fatalf("%v stress run failed verification", cons)
			}
			if got := res.History.Len() - 1; got != procs*24 {
				t.Fatalf("recorded %d m-operations, want %d", got, procs*24)
			}
		})
	}
}

// TestSameProcessExecutesSerialize: Execute calls racing on ONE Process
// handle must serialize (processes are sequential threads of control) —
// otherwise the recorded subhistory would overlap and History() would
// reject it as non-well-formed.
func TestSameProcessExecutesSerialize(t *testing.T) {
	s := newStore(t, Config{Procs: 1, Consistency: MLinearizable, Seed: 31})
	p, _ := s.Process(0)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := p.Write(0, object.Value(g*100+i+1)); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	h, err := s.History()
	if err != nil {
		t.Fatalf("History: %v (same-process executions overlapped?)", err)
	}
	if h.Len()-1 != 40 {
		t.Fatalf("recorded %d, want 40", h.Len()-1)
	}
	res, err := s.Verify()
	if err != nil || !res.OK {
		t.Fatalf("Verify = %+v, %v", res, err)
	}
}
