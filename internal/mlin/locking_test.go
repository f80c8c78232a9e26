package mlin

import (
	"sync"
	"testing"

	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
)

// localReaders are the two replicas whose queries read the local copy:
// a Sequential one at the zero level, and an m-lin one at ONE.
var localReaders = []struct {
	name  string
	new   func(t *testing.T, procs int) *Protocol
	query mop.ExecOptions
}{
	{"sequential", func(t *testing.T, procs int) *Protocol { return newSequential(t, procs, 0) }, mop.ExecOptions{}},
	{"mlin-one", func(t *testing.T, procs int) *Protocol { return newProtocol(t, procs, 0, false) }, mop.ExecOptions{Level: history.LevelOne}},
}

// TestRecordsDeclareHonestFootprints pins the per-object-locking
// contract: update and local-read records carry the procedure's
// declared footprint, not a full-set over-approximation, and a query's
// timestamp vector is meaningful on exactly those entries.
func TestRecordsDeclareHonestFootprints(t *testing.T) {
	for _, r := range localReaders {
		t.Run(r.name, func(t *testing.T) {
			p := r.new(t, 1)
			urec, err := p.Exec(0, mop.WriteOp{X: 2, V: 7}, mop.ExecOptions{})
			if err != nil {
				t.Fatalf("update: %v", err)
			}
			if !urec.Footprint.Equal(object.NewSet(2)) {
				t.Fatalf("update footprint = %v, want {2}", urec.Footprint)
			}
			rec, err := p.Exec(0, mop.ReadOp{X: 2}, r.query)
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			if want := object.NewSet(2); !rec.Footprint.Equal(want) {
				t.Fatalf("query footprint = %v, want %v", rec.Footprint, want)
			}
			if got := rec.TSStart.Get(2); got != 1 {
				t.Fatalf("query TSStart[2] = %d, want 1 (one prior write)", got)
			}
		})
	}
}

// TestDisjointQueriesRunDuringUpdates hammers one process with updates
// on objects {0,1} and concurrent local queries on disjoint objects
// {2,3} and overlapping ones. Under the race detector this is the
// regression test for the per-object lock split: Sequential queries take
// no writer lock, so any missing synchronization on values/ts surfaces
// as a reported race, and any ordering mistake as a deadlock or a torn
// multi-object read.
func TestDisjointQueriesRunDuringUpdates(t *testing.T) {
	for _, r := range localReaders {
		t.Run(r.name, func(t *testing.T) {
			p := r.new(t, 2)
			const rounds = 300
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // writer lane: transfers within {0,1}
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if _, err := p.Exec(0, mop.Transfer{From: 0, To: 1, Amount: 1}, mop.ExecOptions{}); err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}()
			go func() { // disjoint queries: {2,3} never blocks on the writer
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if _, err := p.Exec(0, mop.Sum{Xs: []object.ID{2, 3}}, r.query); err != nil {
						t.Errorf("disjoint sum: %v", err)
						return
					}
				}
			}()
			go func() { // overlapping queries: {0,1} must see atomic snapshots
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					rec, err := p.Exec(0, mop.Sum{Xs: []object.ID{0, 1}}, r.query)
					if err != nil {
						t.Errorf("overlapping sum: %v", err)
						return
					}
					// Transfers conserve the total: a torn read (one object
					// pre-transfer, the other post) breaks the invariant.
					if got := rec.Result.(object.Value); got != 0 {
						t.Errorf("transfer total = %d, want 0 — torn footprint snapshot", got)
						return
					}
				}
			}()
			wg.Wait()
		})
	}
}
