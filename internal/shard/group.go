package shard

import (
	"errors"
	"fmt"
	"sync"

	"moc/internal/abcast"
	"moc/internal/network"
	"moc/internal/object"
)

// Router is what the group needs from a broadcast payload in order to
// route it: the footprint of the m-operation it carries. The replica's
// update payload (internal/mlin, under m-SC and m-lin alike) implements
// it. Payloads without a footprint route to shard 0.
type Router interface {
	RoutingFootprint() []object.ID
}

// GroupConfig parameterizes NewGroup.
type GroupConfig struct {
	// Procs is the number of processes (replicas).
	Procs int
	// Map is the object→shard partition.
	Map *Map
	// Lanes are the per-shard atomic broadcasters, len == Map.Shards().
	// The group owns them: Close closes every lane.
	Lanes []abcast.Broadcaster
}

// Group composes per-shard atomic-broadcast lanes into one Broadcaster
// whose delivery order satisfies the §4 OO-constraint without a global
// sequencer:
//
//   - A single-shard m-operation is broadcast on its shard's lane and
//     emitted the moment that lane delivers it.
//
//   - A cross-shard m-operation runs a Skeen-style two-phase merge: a
//     Ticket is broadcast on every involved lane; each replica stamps
//     the ticket with that lane's local ticket clock; when the issuer's
//     replica holds tickets from all involved lanes it commits the
//     maximum as the final rank and broadcasts a Commit on every
//     involved lane. Within a lane, a committed operation is scheduled
//     only once no pending ticket could still rank below it — the
//     classic Skeen hold-back — so each lane schedules its cross
//     operations in ascending (final, id) order, which is one global
//     total order: no two lanes ever disagree on the relative order of
//     two cross operations, and the apply barrier cannot cycle. The
//     operation is emitted when it heads every involved lane's schedule
//     at this replica. Single-shard operations arriving behind a
//     scheduled-but-unapplied operation are held in that lane's queue
//     and flushed when it applies; a pump never blocks, so commits
//     queued behind a barrier are always processed — parking the lane
//     instead is a deadlock (two cross operations sharing two lanes,
//     with their Commits arriving in opposite orders on the two lanes,
//     would park each lane at a different op and neither commit that
//     resolves the ranks would ever be drained).
//
//   - Process order across lanes is preserved by session anchoring:
//     each process's next update is promoted to include the shard of
//     its previous operation (and the shards its queries observed), so
//     consecutive operations of one process always share a lane slot
//     chain. Without this, two single-shard updates by one process on
//     different shards could apply in opposite orders at another
//     replica — an m-SC violation.
//
// Emitted Seq numbers are composite: apply-clock × shardCount + lowest
// involved shard. They are globally unique and strictly increasing
// along every shard's schedule, but not gap-free or monotone per
// replica stream; Delivery.Shards marks them as sharded.
type Group struct {
	procs int
	m     *Map
	lanes []abcast.Broadcaster
	outs  []chan abcast.Delivery
	reps  []*replica

	anchMu  sync.Mutex
	anchors [][]int // per process: shards its next update must follow

	idMu   sync.Mutex
	nextID int64

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Ticket is phase one of the cross-shard merge: it carries the
// operation's payload to every involved lane, where each replica ranks
// it with the lane's local ticket clock.
type Ticket struct {
	// ID is the globally unique cross-operation id (issuer-scoped
	// counter × procs + issuer).
	ID int64
	// From is the issuing process.
	From int
	// Shards is the sorted involved shard set.
	Shards []int
	// Payload is the wrapped broadcast payload.
	Payload any
	// Bytes is the accounted wire size of the wrapped payload.
	Bytes int
}

// Commit is phase two: the issuer's replica, having seen the ticket on
// every involved lane, fixes the operation's final rank (the maximum of
// the per-lane ticket clocks) and announces it on every involved lane.
type Commit struct {
	ID    int64
	Final int64
}

// crossOp is one in-flight cross-shard operation at one replica.
type crossOp struct {
	id      int64
	from    int
	shards  []int
	payload any
	bytes   int

	lts       map[int]int64 // per-lane local ticket clock values
	final     int64         // rank from Commit; valid once committed in any lane
	committed map[int]bool  // lanes whose Commit this replica has processed
	sent      bool          // issuer-side: Commit already broadcast
}

// schedEntry is one slot of a lane's schedule: either a cross operation
// whose lane rank is fixed (co != nil) or a held-back single-shard
// delivery that arrived behind one (single).
type schedEntry struct {
	co     *crossOp
	single abcast.Delivery
}

// replica is one process's merge state across all lanes.
type replica struct {
	mu sync.Mutex

	tclock   []int64 // per-shard ticket clocks (Skeen phase 1)
	seqClock []int64 // per-shard apply clocks (composite Seq)
	cross    map[int64]*crossOp
	pend     [][]*crossOp   // per shard: ticketed, rank not yet fixed
	sched    [][]schedEntry // per shard: scheduled, not yet emitted (FIFO)
}

// NewGroup builds the composed broadcaster over cfg.Lanes and starts
// one pump goroutine per (replica, lane).
func NewGroup(cfg GroupConfig) (*Group, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("shard: need at least one process, got %d", cfg.Procs)
	}
	if cfg.Map == nil {
		return nil, errors.New("shard: nil map")
	}
	if len(cfg.Lanes) != cfg.Map.Shards() {
		return nil, fmt.Errorf("shard: %d lanes for %d shards", len(cfg.Lanes), cfg.Map.Shards())
	}
	k := cfg.Map.Shards()
	g := &Group{
		procs:   cfg.Procs,
		m:       cfg.Map,
		lanes:   cfg.Lanes,
		outs:    make([]chan abcast.Delivery, cfg.Procs),
		reps:    make([]*replica, cfg.Procs),
		anchors: make([][]int, cfg.Procs),
		stop:    make(chan struct{}),
	}
	for p := 0; p < cfg.Procs; p++ {
		g.outs[p] = make(chan abcast.Delivery, 1024)
		g.reps[p] = &replica{
			tclock:   make([]int64, k),
			seqClock: make([]int64, k),
			cross:    make(map[int64]*crossOp),
			pend:     make([][]*crossOp, k),
			sched:    make([][]schedEntry, k),
		}
	}
	for p := 0; p < cfg.Procs; p++ {
		for s := 0; s < k; s++ {
			g.wg.Add(1)
			go g.pump(p, s)
		}
	}
	return g, nil
}

// Broadcast routes by the payload's footprint: the involved shard set
// is the footprint's shards unioned with the process's session anchor;
// one shard rides its lane directly, several run the ticket/commit
// merge. The anchor then compresses to the lowest involved shard —
// following this operation in any one of its lanes orders after it, and
// transitively after everything it was anchored on.
func (g *Group) Broadcast(from int, payload any, bytes int) error {
	if from < 0 || from >= g.procs {
		return fmt.Errorf("shard: process %d out of range", from)
	}
	var fp []object.ID
	if rt, ok := payload.(Router); ok {
		fp = rt.RoutingFootprint()
	}
	shards := g.m.ShardsOf(fp)

	g.anchMu.Lock()
	involved := unionSorted(shards, g.anchors[from])
	g.anchors[from] = involved[:1:1]
	g.anchMu.Unlock()

	if len(involved) == 1 {
		return g.lanes[involved[0]].Broadcast(from, payload, bytes)
	}

	g.idMu.Lock()
	g.nextID++
	id := g.nextID*int64(g.procs) + int64(from)
	g.idMu.Unlock()
	t := Ticket{ID: id, From: from, Shards: involved, Payload: payload, Bytes: bytes}
	for _, s := range involved {
		if err := g.lanes[s].Broadcast(from, t, bytes+ticketOverhead(len(involved))); err != nil {
			return err
		}
	}
	return nil
}

// TouchQuery records that a query by proc observed the given footprint:
// the process's next update must be ordered after the observed per-shard
// prefixes, so those shards join its anchor. Queries have no schedule
// slot of their own, so the anchor accumulates until the next update
// compresses it.
func (g *Group) TouchQuery(proc int, fp []object.ID) {
	if proc < 0 || proc >= g.procs {
		return
	}
	shards := g.m.ShardsOf(fp)
	g.anchMu.Lock()
	g.anchors[proc] = unionSorted(shards, g.anchors[proc])
	g.anchMu.Unlock()
}

// Deliveries returns process p's composed delivery stream.
func (g *Group) Deliveries(p int) <-chan abcast.Delivery { return g.outs[p] }

// MessageCost sums the lanes' traffic counters.
func (g *Group) MessageCost() (int64, int64) {
	var msgs, bytes int64
	for _, l := range g.lanes {
		m, b := l.MessageCost()
		msgs += m
		bytes += b
	}
	return msgs, bytes
}

// NetStats sums the lanes' transport counters.
func (g *Group) NetStats() network.Stats {
	var out network.Stats
	for _, l := range g.lanes {
		out.Merge(l.NetStats())
	}
	return out
}

// BatchStats sums the group-commit meters of the lanes that batch (see
// abcast.Batcher.BatchStats); all zero over unbatched lanes.
func (g *Group) BatchStats() (flushes, batches, batched int64) {
	for _, l := range g.lanes {
		if b, ok := l.(abcast.BatchMeter); ok {
			f, m, n := b.BatchStats()
			flushes, batches, batched = flushes+f, batches+m, batched+n
		}
	}
	return flushes, batches, batched
}

// Close shuts every lane down and waits for the pump goroutines before
// closing the delivery streams.
func (g *Group) Close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		for _, l := range g.lanes {
			l.Close()
		}
		g.wg.Wait()
		for _, out := range g.outs {
			close(out)
		}
	})
}

// pump drains lane s's deliveries for replica r into the merge.
func (g *Group) pump(r, s int) {
	defer g.wg.Done()
	ch := g.lanes[s].Deliveries(r)
	st := g.reps[r]
	for {
		var d abcast.Delivery
		var ok bool
		select {
		case <-g.stop:
			return
		case d, ok = <-ch:
			if !ok {
				return
			}
		}
		st.mu.Lock()
		switch m := d.Payload.(type) {
		case Ticket:
			co := st.ensure(m.ID)
			if co.payload == nil {
				co.from, co.shards, co.payload, co.bytes = m.From, m.Shards, m.Payload, m.Bytes
			}
			st.tclock[s]++
			co.lts[s] = st.tclock[s]
			st.pend[s] = append(st.pend[s], co)
			if r == co.from && !co.sent && len(co.lts) == len(co.shards) {
				// This replica is the issuer's and has now ranked the op
				// in every involved lane: fix the final rank and announce
				// it. Broadcast outside the mutex (lane submission may
				// block) and exactly once.
				co.sent = true
				var final int64
				for _, t := range co.lts {
					if t > final {
						final = t
					}
				}
				g.wg.Add(1)
				go g.sendCommit(co.from, co.shards, Commit{ID: co.id, Final: final})
			}
		case Commit:
			co := st.ensure(m.ID)
			co.final = m.Final
			co.committed[s] = true
			// Lamport-style clock merge: later tickets in this lane must
			// rank above every committed final, or a new ticket could
			// slot under an already-committed op.
			if m.Final > st.tclock[s] {
				st.tclock[s] = m.Final
			}
		default:
			// Single-shard operation. If nothing is scheduled ahead of it
			// in this lane, it emits at the lane's next apply slot; behind
			// a scheduled-but-unapplied cross operation it is held back —
			// the cross op's lane rank is already fixed, so the single is
			// ordered after it at every replica.
			if len(st.sched[s]) == 0 {
				st.seqClock[s]++
				g.emitLocked(st, r, abcast.Delivery{
					Seq:     st.seqClock[s]*int64(g.m.shards) + int64(s),
					From:    d.From,
					Payload: d.Payload,
					Shards:  []int{s},
				})
			} else {
				st.sched[s] = append(st.sched[s], schedEntry{single: d})
			}
		}
		st.scheduleLocked(s)
		g.advanceLocked(st, r)
		st.mu.Unlock()
	}
}

// scheduleLocked moves shard s's eligible cross operations from pending
// to the lane schedule, in rank order: an op is eligible once its Commit
// has arrived in this lane AND no other pending ticket could still rank
// below it (Skeen's hold-back — an uncommitted ticket's final rank is
// at least its local stamp, so only a committed op that is minimal under
// (rank, id) over the whole pending set has its lane position fixed).
// Both the stamps and the commit arrivals are functions of lane s's own
// delivery prefix, so every replica schedules the lane identically; and
// because a ticket arriving after a Commit is stamped above its final
// rank, the per-lane schedule order of cross ops is ascending
// (final, id) — one global order shared by all lanes.
func (st *replica) scheduleLocked(s int) {
	for {
		co := st.minPending(s)
		if co == nil || !co.committed[s] {
			return
		}
		st.pend[s] = removeOp(st.pend[s], co)
		st.sched[s] = append(st.sched[s], schedEntry{co: co})
	}
}

// minPending returns the minimum-(rank, id) pending cross op of shard s,
// or nil. The rank of an op in lane s is final once s's Commit arrived
// and the local ticket stamp before.
func (st *replica) minPending(s int) *crossOp {
	var best *crossOp
	var bestRank, bestID int64
	for _, co := range st.pend[s] {
		rank, id := st.rank(s, co)
		if best == nil || rank < bestRank || (rank == bestRank && id < bestID) {
			best, bestRank, bestID = co, rank, id
		}
	}
	return best
}

func (st *replica) rank(s int, co *crossOp) (int64, int64) {
	if co.committed[s] {
		return co.final, co.id
	}
	return co.lts[s], co.id
}

// advanceLocked drains every lane schedule as far as it will go: held
// singles at a lane's front emit immediately, and a cross operation
// emits the moment it heads the schedule of every lane it involves.
// Lane schedules agree on the relative order of cross operations (one
// ascending (final, id) order), so the barrier can never cycle; the
// globally minimal unapplied cross op always eventually clears. The
// scan restarts after any progress because an apply pops entries from
// several lanes at once.
func (g *Group) advanceLocked(st *replica, r int) {
	for progress := true; progress; {
		progress = false
		for s := range st.sched {
			for len(st.sched[s]) > 0 {
				e := st.sched[s][0]
				if e.co == nil {
					st.sched[s] = st.sched[s][1:]
					st.seqClock[s]++
					g.emitLocked(st, r, abcast.Delivery{
						Seq:     st.seqClock[s]*int64(g.m.shards) + int64(s),
						From:    e.single.From,
						Payload: e.single.Payload,
						Shards:  []int{s},
					})
					progress = true
					continue
				}
				if !st.headsAllLanes(e.co) {
					break
				}
				g.applyCrossLocked(st, r, e.co)
				progress = true
			}
		}
	}
}

// headsAllLanes reports whether co is at the front of every involved
// lane's schedule at this replica.
func (st *replica) headsAllLanes(co *crossOp) bool {
	for _, u := range co.shards {
		if len(st.sched[u]) == 0 || st.sched[u][0].co != co {
			return false
		}
	}
	return true
}

// applyCrossLocked emits co as one merged delivery and pops it from the
// front of every involved shard's schedule. The composite apply clock
// is max over the involved shards plus one, written back to each, so
// the emitted Seq is strictly above everything already applied in any
// involved shard. Eligibility required co's Ticket and Commit on every
// involved lane, so no further messages for this id can arrive and the
// map entry is dropped.
func (g *Group) applyCrossLocked(st *replica, r int, co *crossOp) {
	var a int64
	for _, u := range co.shards {
		if st.seqClock[u] > a {
			a = st.seqClock[u]
		}
	}
	a++
	for _, u := range co.shards {
		st.seqClock[u] = a
		st.sched[u] = st.sched[u][1:]
	}
	delete(st.cross, co.id)
	g.emitLocked(st, r, abcast.Delivery{
		Seq:     a*int64(g.m.shards) + int64(co.shards[0]),
		From:    co.from,
		Payload: co.payload,
		Shards:  append([]int(nil), co.shards...),
	})
}

func (g *Group) emitLocked(st *replica, r int, d abcast.Delivery) {
	select {
	case g.outs[r] <- d:
	case <-g.stop:
	}
}

func (g *Group) sendCommit(from int, shards []int, c Commit) {
	defer g.wg.Done()
	for _, s := range shards {
		if err := g.lanes[s].Broadcast(from, c, commitBytes); err != nil {
			return
		}
	}
}

func (st *replica) ensure(id int64) *crossOp {
	co, ok := st.cross[id]
	if !ok {
		co = &crossOp{
			id:        id,
			final:     -1,
			lts:       make(map[int]int64),
			committed: make(map[int]bool),
		}
		st.cross[id] = co
	}
	return co
}

func removeOp(pend []*crossOp, co *crossOp) []*crossOp {
	for i, c := range pend {
		if c == co {
			return append(pend[:i], pend[i+1:]...)
		}
	}
	return pend
}

// unionSorted merges two sorted duplicate-free int slices.
func unionSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Wire-size accounting for the merge control traffic.
const commitBytes = 16

func ticketOverhead(shards int) int { return 24 + 8*shards }
