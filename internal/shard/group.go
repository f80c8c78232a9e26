package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"moc/internal/abcast"
	"moc/internal/network"
	"moc/internal/object"
)

// Router is what the group needs from a broadcast payload in order to
// route it: the footprint of the m-operation it carries and the issuing
// lane of its session. The replica's update payload (internal/mlin,
// under m-SC and m-lin alike) implements it. Payloads without a
// footprint route to shard 0; payloads that are not Routers ride
// session (from, lane 0).
type Router interface {
	RoutingFootprint() []object.ID
	RoutingLane() int
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
//   - A cross-shard m-operation runs a Skeen-style merge in three
//     phases, 2k−1 lane broadcasts for k lanes. A Ticket goes on every
//     involved lane but the closing one; each replica stamps it with
//     that lane's local ticket clock. Once the issuer's replica has
//     ranked it on all of them, a Close goes on the closing lane with
//     the partial rank, the maximum of those stamps; each replica
//     stamps the Close too and commits the operation there at once with
//     final rank max(partial, stamp). Once the issuer's replica has
//     done so, a Commit with the final rank goes on every other
//     involved lane. The closing lane is the one the operation reaches
//     into (see Broadcast): it pays one round trip instead of two, and
//     the session's own lanes carry the operation's last event. Within
//     a lane, a committed operation is scheduled only once no pending
//     ticket could still rank below it — the classic Skeen hold-back —
//     so each lane schedules its cross operations in ascending
//     (final, id) order, which is one global
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
//   - Process order across lanes is preserved by session anchoring. A
//     session is one issuing lane of a process, recorded as process
//     from + lane·Procs. Its anchor is the lane set of its previous
//     operation, which has completed, so it already holds a slot in
//     every one of those lanes' schedules. The next operation rides its
//     footprint's lanes (plus the shards TouchQuery recorded) and is
//     promoted to the anchor's lowest lane only when it shares none of
//     them, so consecutive operations of a session always share a lane
//     whose FIFO carries their order. Without this, two single-shard
//     updates of one session on different shards could apply in
//     opposite orders at another replica — an m-SC violation. Keyed by
//     the process instead, the previous operation may be another
//     session's cross operation still in flight, which a single-shard
//     emit can overtake while its ticket is pending.
//
//   - ReadLocal admits an m-SC query to the issuer's local copy only if
//     it reads one shard and that shard is a lane of its session's
//     anchor: the read is then one point in that lane's schedule,
//     after the session's previous operation. Any other m-SC query is
//     broadcast through the group like an update, so store buffering
//     and IRIW shapes cannot observe two lanes at incomparable prefixes.
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
	anchors map[int]anchor // per session: from + lane·procs
	stats   Stats          // under anchMu
	held    atomic.Int64   // Stats.Held; pumps count under a replica lock

	idMu   sync.Mutex
	nextID int64

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// anchor is one session's routing state.
type anchor struct {
	lanes   []int // lane set of the session's previous operation; nil before its first
	touched []int // shards the session's m-lin queries observed since (TouchQuery)
}

// Stats counts the group's routing decisions. An ordered read is also
// counted by the broadcast that carries it.
type Stats struct {
	// Single and Merged count broadcasts that rode one lane and those
	// that ran the cross-shard merge.
	Single, Merged int64
	// LocalReads and OrderedReads count ReadLocal's verdicts.
	LocalReads, OrderedReads int64
	// Held counts single-shard deliveries a replica queued behind a
	// scheduled but unapplied cross-shard operation, summed over
	// replicas.
	Held int64
}

// Ticket is phase one of the cross-shard merge: it carries the
// operation's payload to every involved lane but the closing one, where
// each replica ranks it with the lane's local ticket clock.
type Ticket struct {
	// ID is the globally unique cross-operation id (issuer-scoped
	// counter × procs + issuer).
	ID int64
	// From is the issuing process.
	From int
	// Shards is the sorted involved shard set.
	Shards []int
	// Closer is the closing lane, the involved lane that gets the Close
	// instead of a Ticket.
	Closer int
	// Payload is the wrapped broadcast payload.
	Payload any
	// Bytes is the accounted wire size of the wrapped payload.
	Bytes int
}

// Close is phase two: the issuer's replica, having ranked the Ticket on
// every other involved lane, sends the operation to the closing lane
// with Partial, the maximum of those ranks. Each replica stamps it with
// the closing lane's ticket clock and commits it there at once with
// final rank max(Partial, stamp).
type Close struct {
	Ticket
	Partial int64
}

// Commit is phase three: the issuer's replica, having committed the
// operation on the closing lane, announces its final rank on every
// other involved lane.
type Commit struct {
	ID    int64
	Final int64
}

// crossOp is one in-flight cross-shard operation at one replica.
type crossOp struct {
	Ticket // the operation, from its first Ticket or Close here

	lts       map[int]int64 // per-lane local ticket clock values
	final     int64         // rank from Close or Commit; valid once committed in any lane
	committed map[int]bool  // lanes whose Close or Commit this replica has processed
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
		anchors: make(map[int]anchor),
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

// Broadcast routes by the payload's footprint and session (see Group):
// the involved shard set is the footprint's shards and the session's
// touched shards, plus the anchor's lowest lane if the two are
// disjoint; one shard rides its lane directly, several run the merge,
// closing on the highest involved lane outside the anchor (the highest
// involved lane if the anchor covers them all). The set becomes the
// session's anchor.
func (g *Group) Broadcast(from int, payload any, bytes int) error {
	var fp []object.ID
	lane := 0
	if rt, ok := payload.(Router); ok {
		fp, lane = rt.RoutingFootprint(), rt.RoutingLane()
	}
	key, ok := g.session(from, lane)
	if !ok {
		return fmt.Errorf("shard: process %d lane %d out of range", from, lane)
	}
	shards := g.m.ShardsOf(fp)

	g.anchMu.Lock()
	a := g.anchors[key]
	involved := unionSorted(shards, a.touched)
	if a.lanes != nil && disjoint(involved, a.lanes) {
		involved = unionSorted(involved, a.lanes[:1])
	}
	closer := closingLane(involved, a.lanes)
	g.anchors[key] = anchor{lanes: involved}
	if len(involved) == 1 {
		g.stats.Single++
	} else {
		g.stats.Merged++
	}
	g.anchMu.Unlock()

	if len(involved) == 1 {
		return g.lanes[involved[0]].Broadcast(from, payload, bytes)
	}

	g.idMu.Lock()
	g.nextID++
	id := g.nextID*int64(g.procs) + int64(from)
	g.idMu.Unlock()
	t := Ticket{ID: id, From: from, Shards: involved, Closer: closer, Payload: payload, Bytes: bytes}
	for _, s := range involved {
		if s == closer {
			continue
		}
		if err := g.lanes[s].Broadcast(from, t, bytes+ticketOverhead(len(involved))); err != nil {
			return err
		}
	}
	return nil
}

// closingLane returns the highest involved lane outside the anchor, or
// the highest involved lane if the anchor covers them all.
func closingLane(involved, anchor []int) int {
	for i := len(involved) - 1; i >= 0; i-- {
		if !slices.Contains(anchor, involved[i]) {
			return involved[i]
		}
	}
	return involved[len(involved)-1]
}

// TouchQuery records that an m-lin query of session (proc, lane)
// observed the given footprint: the session's next operation must be
// ordered after the observed per-shard prefixes, so those shards join
// its involved set. m-SC queries use ReadLocal instead.
func (g *Group) TouchQuery(proc, lane int, fp []object.ID) {
	key, ok := g.session(proc, lane)
	if !ok {
		return
	}
	shards := g.m.ShardsOf(fp)
	g.anchMu.Lock()
	a := g.anchors[key]
	a.touched = unionSorted(shards, a.touched)
	g.anchors[key] = a
	g.anchMu.Unlock()
}

// ReadLocal reports whether an m-SC query of session (proc, lane) over
// fp may read the issuer's local copy: only if fp lies in one shard
// that is a lane of the session's anchor, or the session has no
// anchor yet. The anchor then becomes that lane. Otherwise the caller
// must broadcast the query through the group as a read-only
// m-operation and answer it at its local apply.
func (g *Group) ReadLocal(proc, lane int, fp []object.ID) bool {
	key, ok := g.session(proc, lane)
	if !ok {
		return false
	}
	shards := g.m.ShardsOf(fp)
	g.anchMu.Lock()
	defer g.anchMu.Unlock()
	a := g.anchors[key]
	if len(shards) != 1 || (a.lanes != nil && disjoint(shards, a.lanes)) {
		g.stats.OrderedReads++
		return false
	}
	a.lanes = shards
	g.anchors[key] = a
	g.stats.LocalReads++
	return true
}

// session returns the anchor key of issuing lane lane of process proc
// — its recorded process id proc + lane·Procs — and whether the pair
// is in range.
func (g *Group) session(proc, lane int) (int, bool) {
	return proc + lane*g.procs, proc >= 0 && proc < g.procs && lane >= 0
}

// Stats returns the routing counters.
func (g *Group) Stats() Stats {
	g.anchMu.Lock()
	st := g.stats
	g.anchMu.Unlock()
	st.Held = g.held.Load()
	return st
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
	for {
		select {
		case <-g.stop:
			return
		case d, ok := <-ch:
			if !ok {
				return
			}
			g.deliver(r, s, d)
		}
	}
}

// deliver merges lane s's next delivery d into replica r's state.
func (g *Group) deliver(r, s int, d abcast.Delivery) {
	st := g.reps[r]
	st.mu.Lock()
	defer st.mu.Unlock()
	switch m := d.Payload.(type) {
	case Ticket:
		co := st.ensure(m)
		st.tclock[s]++
		co.lts[s] = st.tclock[s]
		st.pend[s] = append(st.pend[s], co)
		if r == co.From && len(co.lts) == len(co.Shards)-1 {
			// This replica is the issuer's and has now ranked the op on
			// every lane but the closing one: send it there with the
			// partial rank. Broadcast outside the mutex (lane submission
			// may block).
			c := Close{Ticket: co.Ticket}
			for _, t := range co.lts {
				c.Partial = max(c.Partial, t)
			}
			g.wg.Add(1)
			go g.send(co.From, []int{co.Closer}, c, co.Bytes+ticketOverhead(len(co.Shards))+closeBytes)
		}
	case Close:
		// The closing lane's only message for this op: stamp it and
		// commit it here at once.
		co := st.ensure(m.Ticket)
		st.tclock[s]++
		st.commitLocked(s, co, max(m.Partial, st.tclock[s]))
		st.pend[s] = append(st.pend[s], co)
		if r == co.From {
			g.wg.Add(1)
			go g.send(co.From, co.own(), Commit{ID: co.ID, Final: co.final}, commitBytes)
		}
	case Commit:
		st.commitLocked(s, st.cross[m.ID], m.Final)
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
			g.held.Add(1)
		}
	}
	st.scheduleLocked(s)
	g.advanceLocked(st, r)
}

// commitLocked fixes co's final rank in lane s. Lamport-style clock
// merge: later tickets in this lane must rank above every committed
// final, or a new ticket could slot under an already-committed op.
func (st *replica) commitLocked(s int, co *crossOp, final int64) {
	co.final = final
	co.committed[s] = true
	st.tclock[s] = max(st.tclock[s], final)
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
		return co.final, co.ID
	}
	return co.lts[s], co.ID
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
	for _, u := range co.Shards {
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
// involved shard. Eligibility required co's Close on the closing lane
// and its Ticket and Commit on every other involved lane, so no further
// messages for this id can arrive and the map entry is dropped.
func (g *Group) applyCrossLocked(st *replica, r int, co *crossOp) {
	var a int64
	for _, u := range co.Shards {
		if st.seqClock[u] > a {
			a = st.seqClock[u]
		}
	}
	a++
	for _, u := range co.Shards {
		st.seqClock[u] = a
		st.sched[u] = st.sched[u][1:]
	}
	delete(st.cross, co.ID)
	g.emitLocked(st, r, abcast.Delivery{
		Seq:     a*int64(g.m.shards) + int64(co.Shards[0]),
		From:    co.From,
		Payload: co.Payload,
		Shards:  append([]int(nil), co.Shards...),
	})
}

func (g *Group) emitLocked(st *replica, r int, d abcast.Delivery) {
	select {
	case g.outs[r] <- d:
	case <-g.stop:
	}
}

// send broadcasts one merge message from the issuer on each of lanes.
func (g *Group) send(from int, lanes []int, m any, bytes int) {
	defer g.wg.Done()
	for _, s := range lanes {
		if err := g.lanes[s].Broadcast(from, m, bytes); err != nil {
			return
		}
	}
}

// ensure returns the state of t's operation, created on its first
// Ticket or Close at this replica.
func (st *replica) ensure(t Ticket) *crossOp {
	co, ok := st.cross[t.ID]
	if !ok {
		co = &crossOp{
			Ticket:    t,
			final:     -1,
			lts:       make(map[int]int64),
			committed: make(map[int]bool),
		}
		st.cross[t.ID] = co
	}
	return co
}

// own returns co's involved lanes other than the closing one: those
// that carry its Ticket and its Commit.
func (co *crossOp) own() []int {
	lanes := make([]int, 0, len(co.Shards)-1)
	for _, s := range co.Shards {
		if s != co.Closer {
			lanes = append(lanes, s)
		}
	}
	return lanes
}

func removeOp(pend []*crossOp, co *crossOp) []*crossOp {
	for i, c := range pend {
		if c == co {
			return append(pend[:i], pend[i+1:]...)
		}
	}
	return pend
}

// disjoint reports whether two sorted int slices share no element.
func disjoint(a, b []int) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return true
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
const (
	commitBytes = 16
	closeBytes  = 8 // a Close's partial rank on top of its ticket
)

func ticketOverhead(shards int) int { return 24 + 8*shards }
