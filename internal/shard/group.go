package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"

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
//     and flushed when it applies; the schedule never parks a lane, so
//     commits queued behind a barrier are always processed — parking a
//     lane is a deadlock (two cross operations sharing two lanes, with
//     their Commits arriving in opposite orders on the two lanes, would
//     park each lane at a different op and neither commit that resolves
//     the ranks would ever be drained).
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
//
// Delivery is by callback (Subscribe): each lane's member goroutine
// merges its delivery under the replica lock and calls the subscriber
// there, so no goroutine or channel sits between a lane's total order
// and the apply. The subscriber must never wait on any lane's progress.
type Group struct {
	procs int
	m     *Map
	lanes []abcast.Broadcaster
	reps  []*replica

	anchMu  sync.Mutex
	anchors map[int]anchor // per session: from + lane·procs
	stats   Stats          // under anchMu

	idMu   sync.Mutex
	nextID int64

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// replica is one process's schedule and the lock its lane callbacks share.
type replica struct {
	mu sync.Mutex
	*schedule
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

// NewGroup builds the composed broadcaster over cfg.Lanes. It starts no
// goroutine: each lane's member loop drives the merge (see Subscribe).
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
		reps:    make([]*replica, cfg.Procs),
		anchors: make(map[int]anchor),
	}
	for p := 0; p < cfg.Procs; p++ {
		g.reps[p] = &replica{schedule: newSchedule(p, k)}
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
	for _, rep := range g.reps {
		rep.mu.Lock()
		st.Held += rep.held
		rep.mu.Unlock()
	}
	return st
}

// Subscribe implements abcast.Broadcaster: fn gets replica r's composed
// stream. Lane s's callback locks the replica, merges the delivery,
// sends each merge message it returns from a goroutine of its own (a
// lane Broadcast can block on a full transport queue), and calls fn for
// the emitted deliveries, in order, under the lock — so the replica's K
// lanes cannot reorder or overlap them.
func (g *Group) Subscribe(r int, fn func(abcast.Delivery)) {
	rep := g.reps[r]
	for s, l := range g.lanes {
		l.Subscribe(r, func(d abcast.Delivery) {
			rep.mu.Lock()
			defer rep.mu.Unlock()
			emit, out := rep.Deliver(s, d)
			for _, o := range out {
				g.wg.Add(1)
				go g.send(r, o)
			}
			for _, e := range emit {
				fn(e)
			}
		})
	}
}

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

// Close shuts every lane down, which ends their callbacks, and waits
// for the merge sends.
func (g *Group) Close() {
	g.closeOnce.Do(func() {
		for _, l := range g.lanes {
			l.Close()
		}
		g.wg.Wait()
	})
}

// send broadcasts merge message o from the issuer on each of its lanes.
func (g *Group) send(from int, o outbound) {
	defer g.wg.Done()
	for _, s := range o.lanes {
		if err := g.lanes[s].Broadcast(from, o.msg, o.bytes); err != nil {
			return
		}
	}
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
