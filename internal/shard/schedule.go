package shard

import (
	"slices"

	"moc/internal/abcast"
)

// crossOp is one in-flight cross-shard operation at one replica.
type crossOp struct {
	Ticket // the operation, from its first Ticket or Close here

	lts       map[int]int64 // per-lane local ticket clock values
	final     int64         // rank from Close or Commit; valid once committed in any lane
	committed map[int]bool  // lanes whose Close or Commit this replica has processed
}

// schedEntry is one slot of a lane's schedule: either a cross operation
// whose lane rank is fixed (co != nil) or a single-shard delivery
// (single), which emits once it heads the lane.
type schedEntry struct {
	co     *crossOp
	single abcast.Delivery
}

// schedule is one replica's merge state across all lanes: the Skeen
// merge of Group as a pure function of each lane's delivery stream. It
// takes no lock, sends nothing and emits nothing itself; Group's lane
// callbacks drive it under the replica lock.
type schedule struct {
	r        int     // the replica
	tclock   []int64 // per-shard ticket clocks (Skeen phase 1)
	seqClock []int64 // per-shard apply clocks (composite Seq)
	cross    map[int64]*crossOp
	pend     [][]*crossOp   // per shard: ticketed, rank not yet fixed
	sched    [][]schedEntry // per shard: scheduled, not yet emitted (FIFO)
	held     int64          // Stats.Held at this replica
	alone    [][]int        // per shard s: {s}, the Shards of its singles

	emit []abcast.Delivery // Deliver's results, reused across calls
	out  []outbound
}

// outbound is one merge message the issuer's replica broadcasts, in
// order, on each of lanes.
type outbound struct {
	lanes []int
	msg   any
	bytes int
}

func newSchedule(r, k int) *schedule {
	sc := &schedule{
		r:        r,
		tclock:   make([]int64, k),
		seqClock: make([]int64, k),
		cross:    make(map[int64]*crossOp),
		pend:     make([][]*crossOp, k),
		sched:    make([][]schedEntry, k),
		alone:    make([][]int, k),
	}
	for s := range sc.alone {
		sc.alone[s] = []int{s}
	}
	return sc
}

// Deliver merges lane s's next delivery d. It returns the deliveries
// this makes emittable, in emit order, and the merge messages this
// replica must now broadcast as the issuer. Both slices are reused by
// the next call.
func (sc *schedule) Deliver(s int, d abcast.Delivery) ([]abcast.Delivery, []outbound) {
	sc.emit, sc.out = sc.emit[:0], sc.out[:0]
	switch m := d.Payload.(type) {
	case Ticket:
		co := sc.ensure(m)
		sc.tclock[s]++
		co.lts[s] = sc.tclock[s]
		sc.pend[s] = append(sc.pend[s], co)
		if sc.r == co.From && len(co.lts) == len(co.Shards)-1 {
			// This replica is the issuer's and has now ranked the op on
			// every lane but the closing one: send it there with the
			// partial rank.
			c := Close{Ticket: co.Ticket}
			for _, t := range co.lts {
				c.Partial = max(c.Partial, t)
			}
			sc.out = append(sc.out, outbound{[]int{co.Closer}, c, co.Bytes + ticketOverhead(len(co.Shards)) + closeBytes})
		}
	case Close:
		// The closing lane's only message for this op: stamp it and
		// commit it here at once.
		co := sc.ensure(m.Ticket)
		sc.tclock[s]++
		sc.commit(s, co, max(m.Partial, sc.tclock[s]))
		sc.pend[s] = append(sc.pend[s], co)
		if sc.r == co.From {
			sc.out = append(sc.out, outbound{co.own(), Commit{ID: co.ID, Final: co.final}, commitBytes})
		}
	case Commit:
		sc.commit(s, sc.cross[m.ID], m.Final)
	default:
		// Single-shard operation. It emits at the lane's next apply
		// slot; behind a scheduled-but-unapplied cross operation it is
		// held back — the cross op's lane rank is already fixed, so
		// the single is ordered after it at every replica.
		if len(sc.sched[s]) > 0 {
			sc.held++
		}
		sc.sched[s] = append(sc.sched[s], schedEntry{single: d})
	}
	sc.scheduleLane(s)
	sc.advance()
	return sc.emit, sc.out
}

// commit fixes co's final rank in lane s. Lamport-style clock
// merge: later tickets in this lane must rank above every committed
// final, or a new ticket could slot under an already-committed op.
func (sc *schedule) commit(s int, co *crossOp, final int64) {
	co.final = final
	co.committed[s] = true
	sc.tclock[s] = max(sc.tclock[s], final)
}

// scheduleLane moves shard s's eligible cross operations from pending
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
func (sc *schedule) scheduleLane(s int) {
	for {
		co := sc.minPending(s)
		if co == nil || !co.committed[s] {
			return
		}
		sc.pend[s] = slices.DeleteFunc(sc.pend[s], func(c *crossOp) bool { return c == co })
		sc.sched[s] = append(sc.sched[s], schedEntry{co: co})
	}
}

// minPending returns the minimum-(rank, id) pending cross op of shard s,
// or nil. The rank of an op in lane s is final once s's Commit arrived
// and the local ticket stamp before.
func (sc *schedule) minPending(s int) *crossOp {
	var best *crossOp
	var bestRank int64
	for _, co := range sc.pend[s] {
		rank := co.lts[s]
		if co.committed[s] {
			rank = co.final
		}
		if best == nil || rank < bestRank || (rank == bestRank && co.ID < best.ID) {
			best, bestRank = co, rank
		}
	}
	return best
}

// advance drains every lane schedule as far as it will go: singles at
// a lane's front emit immediately, and a cross operation emits the
// moment it heads the schedule of every lane it involves. Lane
// schedules agree on the relative order of cross operations (one
// ascending (final, id) order), so the barrier can never cycle; the
// globally minimal unapplied cross op always eventually clears. The
// scan restarts after any progress because an apply pops entries from
// several lanes at once.
func (sc *schedule) advance() {
	for progress := true; progress; {
		progress = false
		for s := range sc.sched {
			for len(sc.sched[s]) > 0 {
				e := sc.sched[s][0]
				if e.co == nil {
					sc.sched[s] = slices.Delete(sc.sched[s], 0, 1)
					sc.seqClock[s]++
					sc.emit = append(sc.emit, abcast.Delivery{
						Seq:     sc.seqClock[s]*int64(len(sc.sched)) + int64(s),
						From:    e.single.From,
						Payload: e.single.Payload,
						Shards:  sc.alone[s],
					})
					progress = true
					continue
				}
				if !sc.headsAllLanes(e.co) {
					break
				}
				sc.applyCross(e.co)
				progress = true
			}
		}
	}
}

// headsAllLanes reports whether co is at the front of every involved
// lane's schedule at this replica.
func (sc *schedule) headsAllLanes(co *crossOp) bool {
	for _, u := range co.Shards {
		if len(sc.sched[u]) == 0 || sc.sched[u][0].co != co {
			return false
		}
	}
	return true
}

// applyCross emits co as one merged delivery and pops it from the
// front of every involved shard's schedule. The composite apply clock
// is max over the involved shards plus one, written back to each, so
// the emitted Seq is strictly above everything already applied in any
// involved shard. Eligibility required co's Close on the closing lane
// and its Ticket and Commit on every other involved lane, so no further
// messages for this id can arrive and the map entry is dropped.
func (sc *schedule) applyCross(co *crossOp) {
	var a int64
	for _, u := range co.Shards {
		a = max(a, sc.seqClock[u])
	}
	a++
	for _, u := range co.Shards {
		sc.seqClock[u] = a
		sc.sched[u] = slices.Delete(sc.sched[u], 0, 1)
	}
	delete(sc.cross, co.ID)
	sc.emit = append(sc.emit, abcast.Delivery{
		Seq:     a*int64(len(sc.sched)) + int64(co.Shards[0]),
		From:    co.From,
		Payload: co.Payload,
		Shards:  append([]int(nil), co.Shards...),
	})
}

// ensure returns the state of t's operation, created on its first
// Ticket or Close at this replica.
func (sc *schedule) ensure(t Ticket) *crossOp {
	co, ok := sc.cross[t.ID]
	if !ok {
		co = &crossOp{
			Ticket:    t,
			final:     -1,
			lts:       make(map[int]int64),
			committed: make(map[int]bool),
		}
		sc.cross[t.ID] = co
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
