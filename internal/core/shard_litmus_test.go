package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/shard"
)

// litmusCell is one (shape, consistency, pipelining) cell of
// TestShardStoreBuffering.
type litmusCell struct {
	shape    string
	cons     Consistency
	procs    int
	inflight int
	// run drives the shape on s; x and y live on different shards.
	run func(s *Store, seed int64, x, y object.ID) error
	// ordered, when positive, is the number of reads every run of an
	// m-SC cell must order through the shard group; local, when not
	// negative, the number it must answer locally.
	ordered, local int64
}

// TestShardStoreBuffering runs the litmus shapes that separate m-SC from
// per-shard sequential consistency on a two-shard store (x and u on
// shard 0, y and v on shard 1), 60 seeds per cell, every history
// decided by the exact checker of the store's condition, and the
// polynomial Verify required to agree with it:
//
//   - SB: P0 writes x and P1 writes y concurrently, then each reads the
//     other's object;
//   - SB-multiread: the same, each reading MultiRead(x, y);
//   - IRIW: P0 writes x and P1 writes y while P2 polls x until it sees
//     the write, then reads y, and P3 does the mirror image (four
//     processes: the shape has four threads);
//   - SB-pipelined (m-SC, MaxInflight 4): SB on one session of each
//     process while another session of the same process has a
//     cross-shard read in flight, so the anchor must be the session's,
//     not the process's.
//
// Local reads of two shards see per-shard prefixes that two replicas
// can hold in incomparable combinations; an m-SC store must order every
// read that is not one point in its session's lane schedule. The m-lin
// cells are the control: their queries already gather every replica.
func TestShardStoreBuffering(t *testing.T) {
	const seeds = 60
	write := func(p *Process, x object.ID, v object.Value) error { return p.Write(x, v) }
	read := func(p *Process, x object.ID) error { _, err := p.Read(x); return err }
	sb := func(multi bool) func(s *Store, _ int64, x, y object.ID) error {
		return func(s *Store, _ int64, x, y object.ID) error {
			return parallel(s, 2, func(p *Process, i int) error {
				own, other := x, y
				if i == 1 {
					own, other = y, x
				}
				if err := write(p, own, 1); err != nil {
					return err
				}
				if multi {
					_, err := p.MultiRead(x, y)
					return err
				}
				return read(p, other)
			})
		}
	}
	iriw := func(s *Store, seed int64, x, y object.ID) error {
		return parallel(s, 4, func(p *Process, i int) error {
			switch i {
			case 0:
				return write(p, x, 1)
			case 1:
				return write(p, y, 1)
			}
			first, second := x, y
			if i == 3 {
				first, second = y, x
			}
			// Each reader polls its first object until the write lands
			// at its replica, then reads the second at once: the two
			// readers see the writes in opposite orders whenever their
			// replicas received them in opposite orders.
			for k := 0; k < 40; k++ {
				v, err := p.Read(first)
				if err != nil || v == 1 {
					if err != nil {
						return err
					}
					break
				}
				time.Sleep(250 * time.Microsecond)
			}
			return read(p, second)
		})
	}
	pipelined := func(s *Store, _ int64, x, y object.ID) error {
		return parallel(s, 2, func(p *Process, i int) error {
			own, other := x, y
			if i == 1 {
				own, other = y, x
			}
			// Lane tokens come back in completion order, so operations
			// issued one at a time take sessions 0, 1, 2, 3, 0. Session
			// 0 runs SB (write, then read the other object) around
			// local reads of own+2 (same shard as own) on sessions 1 and
			// 2 and a cross-shard read still in flight on session 3. A
			// rule keyed by the process would take that read's lanes for
			// session 0's and answer the SB read locally.
			if err := write(p, own, 1); err != nil {
				return err
			}
			for k := 0; k < 2; k++ {
				if err := read(p, own+2); err != nil {
					return err
				}
			}
			f, err := p.ExecAsync(mop.MultiRead{Xs: []object.ID{x, y}}, ExecOptions{})
			if err != nil {
				return err
			}
			if err := read(p, other); err != nil {
				return err
			}
			_, err = f.Wait()
			return err
		})
	}

	var cells []litmusCell
	for _, cons := range []Consistency{MSequential, MLinearizable} {
		// Every SB read leaves its session's lane, so all are ordered;
		// an IRIW reader's polls stay local and its second read is
		// ordered. m-lin queries never ask the group.
		var ordered int64
		if cons == MSequential {
			ordered = 2
		}
		cells = append(cells,
			litmusCell{shape: "SB", cons: cons, procs: 3, run: sb(false), ordered: ordered},
			litmusCell{shape: "SB-multiread", cons: cons, procs: 3, run: sb(true), ordered: ordered},
			litmusCell{shape: "IRIW", cons: cons, procs: 4, run: iriw, ordered: ordered, local: -1},
		)
	}
	cells = append(cells, litmusCell{shape: "SB-pipelined", cons: MSequential, procs: 3, inflight: 4, run: pipelined, ordered: 4, local: 4})

	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s-%v", c.shape, c.cons), func(t *testing.T) {
			t.Parallel()
			var mu sync.Mutex
			var red []int64
			var ordered int64
			sem := make(chan struct{}, 4)
			var wg sync.WaitGroup
			for seed := int64(1); seed <= seeds; seed++ {
				wg.Add(1)
				sem <- struct{}{}
				go func(seed int64) {
					defer func() { <-sem; wg.Done() }()
					ok, st, err := runLitmus(c, seed)
					if err != nil {
						t.Errorf("seed %d: %v", seed, err)
						return
					}
					if (c.ordered > 0 && st.OrderedReads != c.ordered) || (c.local >= 0 && st.LocalReads != c.local) {
						t.Errorf("seed %d: %d local and %d ordered reads, want %d ordered (and %d local unless negative)",
							seed, st.LocalReads, st.OrderedReads, c.ordered, c.local)
					}
					mu.Lock()
					defer mu.Unlock()
					ordered += st.OrderedReads
					if !ok {
						red = append(red, seed)
					}
				}(seed)
			}
			wg.Wait()
			if len(red) > 0 {
				t.Errorf("%d/%d seeds violate %v (seeds %v)", len(red), seeds, c.cons, red)
			}
			if c.cons == MSequential && ordered == 0 {
				t.Errorf("no read was ordered through the shard group in %d seeds", seeds)
			}
		})
	}
}

// runLitmus runs one seed of a cell and reports whether the exact
// checker accepts the history, with the group's counters. A polynomial
// Verify verdict that differs from the exact one is an error.
func runLitmus(c litmusCell, seed int64) (bool, shard.Stats, error) {
	s, err := New(Config{
		Procs: c.procs, Objects: []string{"x", "y", "u", "v"}, Consistency: c.cons,
		Shards: 2, MaxInflight: c.inflight, Seed: seed, MaxDelay: 5 * time.Millisecond,
	})
	if err != nil {
		return false, shard.Stats{}, err
	}
	defer s.Close()
	if err := c.run(s, seed, 0, 1); err != nil {
		return false, shard.Stats{}, err
	}
	// An m-SC read, ordered or not, is recorded as an ordinary query
	// answered by its issuer's replica. An m-lin query's merged copy is
	// no snapshot across lanes, so its record claims only the objects it
	// read.
	for _, r := range s.Records() {
		if r.Update {
			continue
		}
		if c.cons == MSequential && (r.Seq != -1 || len(r.Responders) != 1 || r.Responders[0] != r.Proc%c.procs) {
			return false, shard.Stats{}, fmt.Errorf("query record of process %d: Seq %d, responders %v", r.Proc, r.Seq, r.Responders)
		}
		if c.cons == MLinearizable {
			var read []object.ID
			for _, op := range history.ExternalReads(r.Ops) {
				read = append(read, op.Obj)
			}
			if want := object.NewSet(read...); !r.Footprint.Equal(want) {
				return false, shard.Stats{}, fmt.Errorf("query record of process %d: footprint %v, read %v", r.Proc, r.Footprint, want)
			}
		}
	}
	exact, err := s.VerifyExact()
	if err != nil {
		return false, shard.Stats{}, err
	}
	// The polynomial check must reach the exact checker's verdict.
	poly, err := s.Verify()
	if err != nil {
		return false, shard.Stats{}, err
	}
	if poly.OK != exact.OK {
		return false, shard.Stats{}, fmt.Errorf("Verify = %v, VerifyExact = %v", poly.OK, exact.OK)
	}
	return exact.OK, s.ShardStats(), nil
}

// parallel runs f for processes 0..n-1 concurrently and returns the
// first error.
func parallel(s *Store, n int, f func(p *Process, i int) error) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		p, err := s.Process(i)
		if err != nil {
			return err
		}
		go func(i int) { errs <- f(p, i) }(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
