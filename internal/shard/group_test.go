package shard

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"moc/internal/abcast"
	"moc/internal/network"
	"moc/internal/object"
)

// memLane is a loss-free in-memory atomic broadcaster: one mutex, one
// sequence counter, synchronous fan-out. It gives every replica the
// identical per-lane total order the real broadcasters guarantee, so
// group tests exercise the merge, not the transport.
type memLane struct {
	mu     sync.Mutex
	seq    int64
	outs   []chan abcast.Delivery
	closed bool
}

func newMemLane(n int) *memLane {
	l := &memLane{outs: make([]chan abcast.Delivery, n)}
	for i := range l.outs {
		l.outs[i] = make(chan abcast.Delivery, 1<<16)
	}
	return l
}

func (l *memLane) Broadcast(from int, payload any, bytes int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return abcast.ErrClosed
	}
	d := abcast.Delivery{Seq: l.seq, From: from, Payload: payload}
	l.seq++
	for _, ch := range l.outs {
		ch <- d
	}
	return nil
}

func (l *memLane) Deliveries(p int) <-chan abcast.Delivery { return l.outs[p] }
func (l *memLane) MessageCost() (int64, int64)             { return l.seq, 0 }
func (l *memLane) NetStats() network.Stats                 { return network.Stats{Messages: l.seq} }

func (l *memLane) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for _, ch := range l.outs {
		close(ch)
	}
}

// testPayload is a routable broadcast payload.
type testPayload struct {
	ID int
	Fp []object.ID
}

func (p testPayload) RoutingFootprint() []object.ID { return p.Fp }

func newTestGroup(t *testing.T, procs, objects, shards int) *Group {
	t.Helper()
	m, err := NewMap(objects, shards)
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]abcast.Broadcaster, shards)
	for s := range lanes {
		lanes[s] = newMemLane(procs)
	}
	g, err := NewGroup(GroupConfig{Procs: procs, Map: m, Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// collect drains n deliveries per replica.
func collect(t *testing.T, g *Group, procs, n int) [][]abcast.Delivery {
	t.Helper()
	out := make([][]abcast.Delivery, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				select {
				case d := <-g.Deliveries(p):
					out[p] = append(out[p], d)
				case <-time.After(10 * time.Second):
					t.Errorf("replica %d: timed out after %d deliveries", p, i)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// checkComposed asserts the invariants of a composed delivery set: Seqs
// globally unique and consistent across replicas per payload, per-shard
// projections identical at every replica, and Seq strictly increasing
// along each shard's schedule.
func checkComposed(t *testing.T, got [][]abcast.Delivery, shards int) {
	t.Helper()
	for p, ds := range got {
		seen := make(map[int64]int)
		last := make([]int64, shards)
		for i, d := range ds {
			if d.Shards == nil {
				t.Fatalf("replica %d delivery %d: nil Shards from a sharded group", p, i)
			}
			id := d.Payload.(testPayload).ID
			if prev, dup := seen[d.Seq]; dup {
				t.Fatalf("replica %d: payloads %d and %d share Seq %d", p, prev, id, d.Seq)
			}
			seen[d.Seq] = id
			for _, s := range d.Shards {
				if d.Seq <= last[s] && last[s] != 0 {
					t.Fatalf("replica %d: shard %d Seq regressed %d -> %d", p, s, last[s], d.Seq)
				}
				last[s] = d.Seq
			}
		}
	}
	// Per-shard projections agree across replicas, and each payload got
	// the same Seq everywhere.
	project := func(ds []abcast.Delivery, s int) []int {
		var ids []int
		for _, d := range ds {
			for _, u := range d.Shards {
				if u == s {
					ids = append(ids, d.Payload.(testPayload).ID)
				}
			}
		}
		return ids
	}
	seqOf := make(map[int]int64)
	for _, d := range got[0] {
		seqOf[d.Payload.(testPayload).ID] = d.Seq
	}
	for p := 1; p < len(got); p++ {
		for s := 0; s < shards; s++ {
			if a, b := project(got[0], s), project(got[p], s); !reflect.DeepEqual(a, b) {
				t.Fatalf("shard %d schedule differs between replicas 0 and %d:\n %v\n %v", s, p, a, b)
			}
		}
		for _, d := range got[p] {
			if want := seqOf[d.Payload.(testPayload).ID]; d.Seq != want {
				t.Fatalf("replica %d: payload %d Seq %d, replica 0 had %d",
					p, d.Payload.(testPayload).ID, d.Seq, want)
			}
		}
	}
}

func TestGroupSingleShardOrder(t *testing.T) {
	const procs, objects, shards, ops = 3, 12, 4, 200
	g := newTestGroup(t, procs, objects, shards)
	defer g.Close()

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < ops; i++ {
		x := object.ID(rng.Intn(objects))
		from := rng.Intn(procs)
		// Reset the issuer's anchor to the op's own shard so every op
		// stays single-shard — this test isolates the fast path.
		g.anchMu.Lock()
		g.anchors[from] = nil
		g.anchMu.Unlock()
		if err := g.Broadcast(from, testPayload{ID: i, Fp: []object.ID{x}}, 8); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, g, procs, ops)
	checkComposed(t, got, shards)
	for p, ds := range got {
		for _, d := range ds {
			if len(d.Shards) != 1 {
				t.Fatalf("replica %d: single-shard op delivered with shards %v", p, d.Shards)
			}
			if int(d.Seq)%shards != d.Shards[0] {
				t.Fatalf("replica %d: composite Seq %d not congruent to shard %d", p, d.Seq, d.Shards[0])
			}
		}
	}
}

func TestGroupCrossShardMerge(t *testing.T) {
	const procs, objects, shards = 3, 12, 4
	g := newTestGroup(t, procs, objects, shards)
	defer g.Close()

	rng := rand.New(rand.NewSource(7))
	var wg sync.WaitGroup
	const perProc = 80
	for from := 0; from < procs; from++ {
		seed := rng.Int63()
		wg.Add(1)
		go func(from int, seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perProc; i++ {
				var fp []object.ID
				for len(fp) == 0 {
					for x := 0; x < objects; x++ {
						if r.Intn(objects) < 2 {
							fp = append(fp, object.ID(x))
						}
					}
				}
				id := from*perProc + i
				if err := g.Broadcast(from, testPayload{ID: id, Fp: fp}, 8); err != nil {
					t.Errorf("broadcast %d: %v", id, err)
					return
				}
			}
		}(from, seed)
	}
	wg.Wait()
	got := collect(t, g, procs, procs*perProc)
	checkComposed(t, got, shards)
}

func TestGroupSessionAnchorPreservesProcessOrder(t *testing.T) {
	const procs, objects, shards = 2, 8, 4
	for trial := 0; trial < 20; trial++ {
		g := newTestGroup(t, procs, objects, shards)
		// U1 on shard 1, then U2 on shard 2: without anchoring these ride
		// independent lanes and may apply in either order at replica 1.
		// Promotion must deliver U2 as a cross op covering shard 1.
		if err := g.Broadcast(0, testPayload{ID: 1, Fp: []object.ID{1}}, 8); err != nil {
			t.Fatal(err)
		}
		if err := g.Broadcast(0, testPayload{ID: 2, Fp: []object.ID{2}}, 8); err != nil {
			t.Fatal(err)
		}
		got := collect(t, g, procs, 2)
		for p, ds := range got {
			if a, b := ds[0].Payload.(testPayload).ID, ds[1].Payload.(testPayload).ID; a != 1 || b != 2 {
				t.Fatalf("trial %d replica %d: process order inverted: got %d then %d", trial, p, a, b)
			}
			if want := []int{1, 2}; !reflect.DeepEqual(ds[1].Shards, want) {
				t.Fatalf("trial %d replica %d: U2 not promoted: shards %v, want %v", trial, p, ds[1].Shards, want)
			}
		}
		g.Close()
	}
}

func TestGroupTouchQueryAnchors(t *testing.T) {
	const procs, objects, shards = 2, 8, 4
	g := newTestGroup(t, procs, objects, shards)
	defer g.Close()

	// A query observing shards 1 and 3 forces the next update (shard 0)
	// to be ordered after the observed prefixes: it must go out as a
	// cross op over {0, 1, 3}.
	g.TouchQuery(0, []object.ID{1, 3})
	if err := g.Broadcast(0, testPayload{ID: 1, Fp: []object.ID{0}}, 8); err != nil {
		t.Fatal(err)
	}
	got := collect(t, g, procs, 1)
	for p, ds := range got {
		if want := []int{0, 1, 3}; !reflect.DeepEqual(ds[0].Shards, want) {
			t.Fatalf("replica %d: shards %v, want %v", p, ds[0].Shards, want)
		}
	}
}

func TestGroupBroadcastValidation(t *testing.T) {
	g := newTestGroup(t, 2, 8, 2)
	defer g.Close()
	if err := g.Broadcast(-1, testPayload{ID: 1, Fp: []object.ID{0}}, 8); err == nil {
		t.Error("negative proc accepted")
	}
	if err := g.Broadcast(2, testPayload{ID: 1, Fp: []object.ID{0}}, 8); err == nil {
		t.Error("out-of-range proc accepted")
	}
}

func TestUnionSorted(t *testing.T) {
	cases := []struct{ a, b, want []int }{
		{[]int{1}, nil, []int{1}},
		{[]int{1}, []int{1}, []int{1}},
		{[]int{0, 2}, []int{1}, []int{0, 1, 2}},
		{[]int{3}, []int{0, 3, 5}, []int{0, 3, 5}},
	}
	for _, c := range cases {
		if got := unionSorted(c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("unionSorted(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestGroupCloseIdempotent(t *testing.T) {
	g := newTestGroup(t, 2, 4, 2)
	g.Close()
	g.Close()
	if err := g.Broadcast(0, testPayload{ID: 1, Fp: []object.ID{0}}, 8); err == nil {
		t.Error("broadcast after close accepted")
	}
}

// statLane is a memLane that reports fixed transport counters and
// group-commit meters, as a batching lane over a real transport does.
type statLane struct {
	*memLane
	net                       network.Stats
	flushes, batches, batched int64
}

func (l statLane) NetStats() network.Stats { return l.net }
func (l statLane) BatchStats() (int64, int64, int64) {
	return l.flushes, l.batches, l.batched
}

// The group's counters must be the sum of its lanes' — every field,
// including the per-kind map and the writer-batch counters — and its
// batch meters the sum over the lanes that batch.
func TestGroupStatsSumLanes(t *testing.T) {
	const procs = 2
	m, err := NewMap(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	laneStats := func(k int64) network.Stats {
		return network.Stats{
			Messages: k, Bytes: 2 * k, Dropped: 3 * k, Duplicated: 4 * k, Retransmitted: 5 * k,
			Throttled: 6 * k, Crashes: 7 * k, Restarts: 8 * k, Reconnects: 9 * k,
			Batches: 10 * k, BatchedFrames: 11 * k,
			ByKind: map[string]network.KindStats{"abcast.req": {Messages: k, Bytes: 2 * k}},
		}
	}
	g, err := NewGroup(GroupConfig{Procs: procs, Map: m, Lanes: []abcast.Broadcaster{
		statLane{memLane: newMemLane(procs), net: laneStats(1), flushes: 5, batches: 2, batched: 7},
		statLane{memLane: newMemLane(procs), net: laneStats(10), flushes: 50, batches: 20, batched: 70},
		newMemLane(procs), // an unbatched lane has no meters to add
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if got, want := g.NetStats(), laneStats(11); !reflect.DeepEqual(got, want) {
		t.Fatalf("NetStats = %+v, want %+v", got, want)
	}
	if f, b, n := g.BatchStats(); f != 55 || b != 22 || n != 77 {
		t.Fatalf("BatchStats = (%d, %d, %d), want (55, 22, 77)", f, b, n)
	}
}
