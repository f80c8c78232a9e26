package shard

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/abcast"
	"moc/internal/network"
	"moc/internal/network/testutil"
	"moc/internal/object"
)

// memLane is a loss-free in-memory atomic broadcaster: one mutex, one
// sequence counter, synchronous fan-out to every replica's subscriber
// on the broadcasting goroutine. It gives every replica the identical
// per-lane total order the real broadcasters guarantee, so group tests
// exercise the merge, not the transport, and it starts no goroutine.
type memLane struct {
	mu     sync.Mutex
	seq    int64
	merge  mergeMsgs // merge messages broadcast, by kind
	subs   abcast.Subscribers
	closed bool
}

// mergeMsgs counts one lane's merge broadcasts by kind.
type mergeMsgs struct{ Tickets, Closes, Commits int64 }

func newMemLane(n int) *memLane {
	return &memLane{subs: abcast.NewSubscribers(n)}
}

func (l *memLane) Broadcast(from int, payload any, bytes int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return abcast.ErrClosed
	}
	d := abcast.Delivery{Seq: l.seq, From: from, Payload: payload}
	l.seq++
	switch payload.(type) {
	case Ticket:
		l.merge.Tickets++
	case Close:
		l.merge.Closes++
	case Commit:
		l.merge.Commits++
	}
	for p := range l.subs {
		l.subs.Deliver(p, d)
	}
	return nil
}

func (l *memLane) Subscribe(p int, fn func(abcast.Delivery)) { l.subs.Subscribe(p, fn) }
func (l *memLane) MessageCost() (int64, int64)               { return l.seq, 0 }
func (l *memLane) NetStats() network.Stats                   { return network.Stats{Messages: l.seq} }

func (l *memLane) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
}

// testPayload is a routable broadcast payload; Lane picks its
// session's issuing lane.
type testPayload struct {
	ID   int
	Fp   []object.ID
	Lane int
}

func (p testPayload) RoutingFootprint() []object.ID { return p.Fp }
func (p testPayload) RoutingLane() int              { return p.Lane }

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

// subscribe gives every replica of g a collector.
func subscribe(g *Group) []testutil.Collector[abcast.Delivery] {
	cs := make([]testutil.Collector[abcast.Delivery], g.procs)
	for p := range cs {
		g.Subscribe(p, cs[p].Add)
	}
	return cs
}

// wait returns the first n deliveries of each collector.
func wait(t *testing.T, cs []testutil.Collector[abcast.Delivery], n int) [][]abcast.Delivery {
	t.Helper()
	out := make([][]abcast.Delivery, len(cs))
	for p := range cs {
		out[p] = cs[p].Wait(t, 10*time.Second, n)
	}
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
		// Drop the issuer's session anchor so every op stays
		// single-shard — this test isolates the fast path.
		g.anchMu.Lock()
		delete(g.anchors, from)
		g.anchMu.Unlock()
		if err := g.Broadcast(from, testPayload{ID: i, Fp: []object.ID{x}}, 8); err != nil {
			t.Fatal(err)
		}
	}
	got := wait(t, subscribe(g), ops)
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
	got := wait(t, subscribe(g), procs*perProc)
	checkComposed(t, got, shards)
}

func TestGroupSessionAnchorPreservesProcessOrder(t *testing.T) {
	const procs, objects, shards = 2, 8, 4
	for trial := 0; trial < 20; trial++ {
		g := newTestGroup(t, procs, objects, shards)
		cs := subscribe(g)
		// U1 on shard 1, then U2 on shard 2: without anchoring these ride
		// independent lanes and may apply in either order at replica 1.
		// Promotion must deliver U2 as a cross op covering shard 1.
		if err := g.Broadcast(0, testPayload{ID: 1, Fp: []object.ID{1}}, 8); err != nil {
			t.Fatal(err)
		}
		if err := g.Broadcast(0, testPayload{ID: 2, Fp: []object.ID{2}}, 8); err != nil {
			t.Fatal(err)
		}
		got := wait(t, cs, 2)
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

// merges returns the merge broadcasts of each of g's memLanes.
func merges(g *Group) []mergeMsgs {
	out := make([]mergeMsgs, len(g.lanes))
	for s, l := range g.lanes {
		m := l.(*memLane)
		m.mu.Lock()
		out[s] = m.merge
		m.mu.Unlock()
	}
	return out
}

// issue broadcasts ops from process from one at a time, each once
// the issuer's replica has delivered the one before — a session's
// previous operation has completed when it issues the next — and
// returns every replica's deliveries of ops. cs are g's collectors
// (subscribe).
func issue(t *testing.T, g *Group, cs []testutil.Collector[abcast.Delivery], from int, ops []testPayload) [][]abcast.Delivery {
	t.Helper()
	base := cs[from].Len()
	for i, op := range ops {
		if err := g.Broadcast(from, op, 8); err != nil {
			t.Fatal(err)
		}
		if len(cs[from].Wait(t, 10*time.Second, base+i+1)) <= base+i {
			t.Fatalf("payload %d never delivered at its issuer", op.ID)
		}
	}
	got := wait(t, cs, base+len(ops))
	for p := range got {
		got[p] = got[p][base:]
	}
	return got
}

// A session that crosses once into a lower foreign shard goes back to
// single-lane broadcasts at its next home-shard update: its anchor is
// the cross operation's whole lane set, which the home shard is in. An
// anchor compressed to the lowest involved shard would stay on the
// foreign shard and promote every later home update into the merge.
func TestGroupSessionLeavesMergeAfterCross(t *testing.T) {
	const procs, objects, shards, home = 2, 8, 4, 10
	g := newTestGroup(t, procs, objects, shards)
	defer g.Close()
	cs := subscribe(g)

	ops := []testPayload{{ID: 0, Fp: []object.ID{2}}, {ID: 1, Fp: []object.ID{1, 2}}}
	for i := 0; i < home; i++ {
		ops = append(ops, testPayload{ID: 2 + i, Fp: []object.ID{object.ID(2 + shards*(i%2))}})
	}
	got := issue(t, g, cs, 0, ops)
	checkComposed(t, got, shards)
	// The one cross operation: a Ticket and a Commit on the home shard
	// 2, and a Close on shard 1, the shard it reaches into.
	if got, want := merges(g), []mergeMsgs{{}, {Closes: 1}, {Tickets: 1, Commits: 1}, {}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merge messages per lane = %+v, want %+v", got, want)
	}
	if st := g.Stats(); st.Single != 1+home || st.Merged != 1 {
		t.Fatalf("Stats = %+v, want %d single and 1 merged", st, 1+home)
	}
	for p, ds := range got {
		for i, d := range ds {
			if id := d.Payload.(testPayload).ID; id != i {
				t.Fatalf("replica %d: delivery %d is payload %d: session order broken", p, i, id)
			}
		}
	}
}

// A k-lane operation costs 2k−1 lane broadcasts: a Ticket and a Commit
// on each lane but the closing one, and one Close there. The closing
// lane is the highest involved lane outside the session's anchor, or
// the highest involved lane when the anchor covers them all.
func TestGroupMergeMessageCounts(t *testing.T) {
	const procs, objects, shards = 2, 8, 4
	cases := []struct {
		name  string
		setup [][]object.ID // the session's earlier operations
		fp    []object.ID   // the operation counted
		want  []mergeMsgs
	}{
		{"2 lanes, reaching up", [][]object.ID{{0}}, []object.ID{0, 1},
			[]mergeMsgs{{Tickets: 1, Commits: 1}, {Closes: 1}, {}, {}}},
		{"2 lanes, reaching down", [][]object.ID{{2}}, []object.ID{1, 2},
			[]mergeMsgs{{}, {Closes: 1}, {Tickets: 1, Commits: 1}, {}}},
		{"3 lanes, one foreign", [][]object.ID{{0}}, []object.ID{0, 1, 3},
			[]mergeMsgs{{Tickets: 1, Commits: 1}, {Tickets: 1, Commits: 1}, {}, {Closes: 1}}},
		{"3 lanes, first operation", nil, []object.ID{0, 1, 2},
			[]mergeMsgs{{Tickets: 1, Commits: 1}, {Tickets: 1, Commits: 1}, {Closes: 1}, {}}},
		{"2 lanes inside the anchor", [][]object.ID{{0, 1, 2}}, []object.ID{1, 2},
			[]mergeMsgs{{}, {Tickets: 1, Commits: 1}, {Closes: 1}, {}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := newTestGroup(t, procs, objects, shards)
			defer g.Close()
			cs := subscribe(g)
			var ops []testPayload
			for i, fp := range c.setup {
				ops = append(ops, testPayload{ID: i, Fp: fp})
			}
			issue(t, g, cs, 0, ops)
			before := merges(g)
			got := issue(t, g, cs, 0, []testPayload{{ID: len(ops), Fp: c.fp}})
			after := merges(g)
			var total int64
			for s := range after {
				after[s].Tickets -= before[s].Tickets
				after[s].Closes -= before[s].Closes
				after[s].Commits -= before[s].Commits
				total += after[s].Tickets + after[s].Closes + after[s].Commits
			}
			if !reflect.DeepEqual(after, c.want) {
				t.Fatalf("merge messages per lane = %+v, want %+v", after, c.want)
			}
			if k := int64(len(got[0][0].Shards)); total != 2*k-1 {
				t.Fatalf("%d merge messages for a %d-lane operation, want %d", total, k, 2*k-1)
			}
		})
	}
}

// The issuer's replica commits a cross operation on the lane it reaches
// into before it sends the Commit on its own lane, so the operation
// applies there the moment that Commit arrives: the session's own
// single-shard traffic on that lane is never held behind it.
func TestGroupIssuerHoldsNothingBehindClose(t *testing.T) {
	const objects, shards, crosses = 8, 4, 50
	g := newTestGroup(t, 1, objects, shards)
	defer g.Close()

	// ids collects session 0's payloads; session 1's singles are -1.
	var ids testutil.Collector[int]
	g.Subscribe(0, func(d abcast.Delivery) {
		if id := d.Payload.(testPayload).ID; id >= 0 {
			ids.Add(id)
		}
	})
	await := func(id int) {
		t.Helper()
		if got := ids.Wait(t, 10*time.Second, id+1); len(got) <= id || got[id] != id {
			t.Fatalf("payload %d never delivered in session order: %v", id, got)
		}
	}
	// Session 0 lives on shard 0 and reaches into shard 1 with every
	// cross operation; session 1 streams singles on shard 0 meanwhile.
	if err := g.Broadcast(0, testPayload{ID: 0, Fp: []object.ID{0}}, 8); err != nil {
		t.Fatal(err)
	}
	await(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1<<14; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := g.Broadcast(0, testPayload{ID: -1, Fp: []object.ID{4}, Lane: 1}, 8); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 1; i <= crosses; i++ {
		if err := g.Broadcast(0, testPayload{ID: i, Fp: []object.ID{0, 1}}, 8); err != nil {
			t.Fatal(err)
		}
		await(i)
	}
	close(stop)
	wg.Wait()
	if st := g.Stats(); st.Merged != crosses || st.Held != 0 {
		t.Fatalf("Stats = %+v, want %d merged and 0 held", st, crosses)
	}
}

// logLane sequences broadcasts into a log and delivers none of them: a
// test feeds the log to each replica's schedule, in a cross-lane
// interleaving of its choosing.
type logLane struct {
	mu  sync.Mutex
	log []abcast.Delivery
}

func (l *logLane) Broadcast(from int, payload any, bytes int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log = append(l.log, abcast.Delivery{Seq: int64(len(l.log)), From: from, Payload: payload})
	return nil
}

func (l *logLane) Subscribe(int, func(abcast.Delivery)) {}
func (l *logLane) MessageCost() (int64, int64)          { return 0, 0 }
func (l *logLane) NetStats() network.Stats              { return network.Stats{} }
func (l *logLane) Close()                               {}

// at returns log entry i, if it has been sequenced.
func (l *logLane) at(i int) (abcast.Delivery, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.log) {
		return abcast.Delivery{}, false
	}
	return l.log[i], true
}

// scripted drives a group over logLanes one delivery at a time.
type scripted struct {
	t     *testing.T
	g     *Group
	lanes []*logLane
	pos   [][]int             // per replica and lane: next log entry
	got   [][]abcast.Delivery // per replica: emitted deliveries
}

func newScripted(t *testing.T, procs, objects, shards int) *scripted {
	t.Helper()
	m, err := NewMap(objects, shards)
	if err != nil {
		t.Fatal(err)
	}
	sc := &scripted{t: t, got: make([][]abcast.Delivery, procs)}
	lanes := make([]abcast.Broadcaster, shards)
	for s := range lanes {
		l := &logLane{}
		sc.lanes = append(sc.lanes, l)
		lanes[s] = l
	}
	for p := 0; p < procs; p++ {
		sc.pos = append(sc.pos, make([]int, shards))
	}
	if sc.g, err = NewGroup(GroupConfig{Procs: procs, Map: m, Lanes: lanes}); err != nil {
		t.Fatal(err)
	}
	return sc
}

// step delivers lane s's next sequenced message to replica r's
// schedule, sequences the Close or Commit it returns on their lanes at
// once, and reports whether there was a message.
func (sc *scripted) step(r, s int) bool {
	d, ok := sc.lanes[s].at(sc.pos[r][s])
	if !ok {
		return false
	}
	sc.pos[r][s]++
	emit, out := sc.g.reps[r].Deliver(s, d)
	sc.got[r] = append(sc.got[r], emit...)
	for _, o := range out {
		for _, l := range o.lanes {
			if err := sc.lanes[l].Broadcast(r, o.msg, o.bytes); err != nil {
				sc.t.Fatal(err)
			}
		}
	}
	return true
}

// run steps replicas rs one message per lane in turn until each has
// emitted n deliveries. A pass that finds every log drained first is a
// stall: the issuer's Close and Commit are sequenced as it steps.
func (sc *scripted) run(rs []int, n int) {
	sc.t.Helper()
	for {
		done, progress := true, false
		for _, r := range rs {
			for s := range sc.lanes {
				progress = sc.step(r, s) || progress
			}
			done = done && len(sc.got[r]) >= n
		}
		if done {
			return
		}
		if !progress {
			sc.t.Fatalf("replicas %v stalled", rs)
		}
	}
}

// broadcast issues op from process from.
func (sc *scripted) broadcast(from int, op testPayload) {
	sc.t.Helper()
	if err := sc.g.Broadcast(from, op, 8); err != nil {
		sc.t.Fatal(err)
	}
}

// Replicas fed the same lane streams in different cross-lane
// interleavings end with identical per-lane schedules. The two issuers
// run first and complete the lane logs; every other replica then reads
// the logs lane by lane in one of the six lane orders, or in a random
// interleaving. The logs hold two concurrent two-lane operations that
// close on each other's own lane (X closes on shard 1, Y on shard 0),
// two concurrent three-lane operations ticketed in opposite lane orders
// (U before V on shard 0, V before U on shard 1) that both close on
// shard 2, and single-shard traffic before and after all of them. Lane
// orders starting on an operation's closing lane see its Close before
// its own-lane Commits; the others see it after them.
func TestGroupCloseInterleavings(t *testing.T) {
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	const issuers, randoms, objects, shards = 2, 4, 6, 3
	procs := issuers + len(perms) + randoms
	sc := newScripted(t, procs, objects, shards)
	defer sc.g.Close()

	// Sessions (0, 0) and (1, 0) read shards 0 and 1 first: those become
	// their anchors, so X and Y each close on the other's shard.
	sc.g.ReadLocal(0, 0, []object.ID{0})
	sc.g.ReadLocal(1, 0, []object.ID{1})
	sc.broadcast(0, testPayload{ID: 1, Fp: []object.ID{0, 1}})
	sc.broadcast(1, testPayload{ID: 2, Fp: []object.ID{0, 1}})
	sc.broadcast(0, testPayload{ID: 3, Fp: []object.ID{0, 1, 2}, Lane: 1})
	sc.broadcast(1, testPayload{ID: 4, Fp: []object.ID{0, 1, 2}, Lane: 1})
	// Shard 1's log is [T_Y, T_U, T_V]: sequence V's ticket before U's.
	l1 := sc.lanes[1]
	for i, id := range []int{2, 3, 4} {
		if got := l1.log[i].Payload.(Ticket).Payload.(testPayload).ID; got != id {
			t.Fatalf("shard 1 log entry %d carries payload %d, want %d", i, got, id)
		}
	}
	l1.log[1].Payload, l1.log[2].Payload = l1.log[2].Payload, l1.log[1].Payload
	sc.broadcast(0, testPayload{ID: 5, Fp: []object.ID{0}, Lane: 2})
	sc.broadcast(1, testPayload{ID: 6, Fp: []object.ID{1}, Lane: 2})
	sc.broadcast(0, testPayload{ID: 7, Fp: []object.ID{2}, Lane: 3})
	sc.run([]int{0, 1}, 7)
	sc.broadcast(0, testPayload{ID: 8, Fp: []object.ID{3}, Lane: 2})
	sc.broadcast(1, testPayload{ID: 9, Fp: []object.ID{4}, Lane: 2})
	sc.broadcast(0, testPayload{ID: 10, Fp: []object.ID{5}, Lane: 3})
	const n = 10
	sc.run([]int{0, 1}, n)

	r := issuers
	for _, perm := range perms {
		for _, s := range perm {
			for sc.step(r, s) {
			}
		}
		r++
	}
	rng := rand.New(rand.NewSource(1))
	for ; r < procs; r++ {
		for {
			var open []int
			for s, l := range sc.lanes {
				if _, ok := l.at(sc.pos[r][s]); ok {
					open = append(open, s)
				}
			}
			if len(open) == 0 {
				break
			}
			sc.step(r, open[rng.Intn(len(open))])
		}
	}
	for r, ds := range sc.got {
		if len(ds) != n {
			t.Fatalf("replica %d emitted %d of %d operations", r, len(ds), n)
		}
	}
	checkComposed(t, sc.got, shards)
	// Lane order (0, 1, 2) reaches the trailing single on shard 0 while
	// every cross operation there is scheduled and none has applied.
	if st := sc.g.Stats(); st.Merged != 4 || st.Held == 0 {
		t.Fatalf("Stats = %+v, want 4 merged and some held", st)
	}
}

// Two sessions of one process keep separate anchors: each session's
// updates stay on its own shard, and each session's reads are local
// only on its own lane. A process-wide anchor would promote every
// update here into the merge.
func TestGroupSessionsKeepSeparateAnchors(t *testing.T) {
	const procs, objects, shards = 2, 8, 4
	g := newTestGroup(t, procs, objects, shards)
	defer g.Close()
	cs := subscribe(g)

	var ops []testPayload
	for i := 0; i < 4; i++ {
		lane := i % 2
		ops = append(ops, testPayload{ID: i, Fp: []object.ID{object.ID(1 + lane)}, Lane: lane})
	}
	checkComposed(t, issue(t, g, cs, 0, ops), shards)
	if got, want := merges(g), make([]mergeMsgs, shards); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge messages per lane = %+v, want none", got)
	}
	reads := []struct {
		lane int
		fp   []object.ID
		want bool
	}{
		{0, []object.ID{1}, true},     // lane 0's anchor is shard 1
		{0, []object.ID{2}, false},    // shard 2 is lane 1's
		{1, []object.ID{2, 6}, true},  // one shard, lane 1's own
		{1, []object.ID{1}, false},    // shard 1 is lane 0's
		{2, []object.ID{3}, true},     // a new session reads anywhere once
		{0, []object.ID{1, 2}, false}, // two shards are never local
	}
	for _, r := range reads {
		if got := g.ReadLocal(0, r.lane, r.fp); got != r.want {
			t.Errorf("ReadLocal(0, %d, %v) = %v, want %v", r.lane, r.fp, got, r.want)
		}
	}
	if st := g.Stats(); st.Single != 4 || st.Merged != 0 || st.LocalReads != 3 || st.OrderedReads != 3 {
		t.Fatalf("Stats = %+v, want 4 single, 3 local and 3 ordered reads", st)
	}
}

// A local read moves its session's anchor to the lane it read: the
// session's next update on another shard is promoted onto that lane,
// so it is ordered after the point the read observed.
func TestGroupReadLocalAnchorsSession(t *testing.T) {
	const procs, objects, shards = 2, 8, 4
	g := newTestGroup(t, procs, objects, shards)
	defer g.Close()

	if !g.ReadLocal(1, 0, []object.ID{3}) {
		t.Fatal("first read of a session not local")
	}
	if err := g.Broadcast(1, testPayload{ID: 1, Fp: []object.ID{0}}, 8); err != nil {
		t.Fatal(err)
	}
	got := wait(t, subscribe(g), 1)
	for p, ds := range got {
		if want := []int{0, 3}; !reflect.DeepEqual(ds[0].Shards, want) {
			t.Fatalf("replica %d: shards %v, want %v", p, ds[0].Shards, want)
		}
	}
	// The update's lanes are now the anchor: shard 3 stays local, and
	// a read of shard 1 must be ordered.
	if !g.ReadLocal(1, 0, []object.ID{7}) || g.ReadLocal(1, 0, []object.ID{1}) {
		t.Fatal("anchor after the promoted update is not {0, 3}")
	}
}

func TestGroupTouchQueryAnchors(t *testing.T) {
	const procs, objects, shards = 2, 8, 4
	g := newTestGroup(t, procs, objects, shards)
	defer g.Close()

	// A query observing shards 1 and 3 forces the next update (shard 0)
	// to be ordered after the observed prefixes: it must go out as a
	// cross op over {0, 1, 3}.
	g.TouchQuery(0, 0, []object.ID{1, 3})
	if err := g.Broadcast(0, testPayload{ID: 1, Fp: []object.ID{0}}, 8); err != nil {
		t.Fatal(err)
	}
	got := wait(t, subscribe(g), 1)
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

// Subscribing drives the merge from the lanes' own goroutines: over
// lanes that start none, NewGroup and Subscribe start none either, and
// a delivery reaches the subscriber before the lane's Broadcast returns.
func TestGroupSubscribeStartsNoGoroutine(t *testing.T) {
	const procs, objects, shards = 3, 8, 4
	const createdInShard = `^moc/internal/shard\.`
	before := testutil.GoroutinesCreatedBy(createdInShard)
	g := newTestGroup(t, procs, objects, shards)
	defer g.Close()
	got := make([][]int, procs)
	for r := 0; r < procs; r++ {
		g.Subscribe(r, func(d abcast.Delivery) { got[r] = append(got[r], d.Payload.(testPayload).ID) })
	}
	for i := 0; i < shards; i++ {
		// One session per shard, so every operation rides one lane.
		if err := g.Broadcast(0, testPayload{ID: i, Fp: []object.ID{object.ID(i)}, Lane: i}, 8); err != nil {
			t.Fatal(err)
		}
		for r := range got {
			if len(got[r]) != i+1 || got[r][i] != i {
				t.Fatalf("replica %d after broadcast %d: %v", r, i, got[r])
			}
		}
	}
	if after := testutil.GoroutinesCreatedBy(createdInShard); after > before {
		t.Fatalf("%d goroutines created in package shard after NewGroup, Subscribe and %d deliveries, %d before", after, shards, before)
	}
}

// A replica's K lane callbacks never overlap, though each lane delivers
// on its own goroutine: every single-shard and cross-shard delivery
// writes a plain per-replica counter inside the callback, which the race
// detector reports if two callbacks of one replica run at once, and an
// in-callback gauge must never read more than one.
func TestGroupSubscribeCallbacksNeverOverlap(t *testing.T) {
	const procs, objects, shards, perSession = 3, 8, 4, 60
	const total = procs * shards * perSession
	g := newTestGroup(t, procs, objects, shards)
	inside := make([]atomic.Int32, procs)
	counts := make([]int, procs) // written only inside the callbacks
	var delivered atomic.Int64
	all := make(chan struct{})
	for r := 0; r < procs; r++ {
		g.Subscribe(r, func(abcast.Delivery) {
			if n := inside[r].Add(1); n != 1 {
				t.Errorf("replica %d: %d callbacks at once", r, n)
			}
			counts[r]++
			inside[r].Add(-1)
			if delivered.Add(1) == total {
				close(all)
			}
		})
	}
	// Sessions on every shard broadcast at once: their lanes deliver
	// concurrently, and every fourth operation crosses into the next
	// shard, so merge messages go out on goroutines of their own too.
	var wg sync.WaitGroup
	for lane := 0; lane < shards; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				fp := []object.ID{object.ID(lane)}
				if i%4 == 3 {
					fp = append(fp, object.ID((lane+1)%shards))
				}
				if err := g.Broadcast(lane%procs, testPayload{ID: lane*perSession + i, Fp: fp, Lane: lane}, 8); err != nil {
					t.Error(err)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d deliveries", delivered.Load(), total)
	}
	g.Close() // no callback runs after: every lane is closed
	for r, n := range counts {
		if n != shards*perSession {
			t.Fatalf("replica %d: %d deliveries, want %d", r, n, shards*perSession)
		}
	}
}
