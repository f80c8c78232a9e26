package mop

import (
	"sync/atomic"
	"time"

	"moc/internal/history"
	"moc/internal/object"
	"moc/internal/timestamp"
)

// Record is what a protocol captures about one executed m-operation at
// its issuing process: the operation sequence actually performed, the
// version-vector timestamps at the start and finish events (Section 5's
// ts(start(α)) and ts(finish(α))), the real-time invocation and response
// instants, and — for updates — the atomic-broadcast delivery sequence
// number, which totally orders all update m-operations (the ~ww order).
//
// Records are the raw material the trace recorder assembles into a
// history.History: the reads-from relation is derived from the
// timestamps exactly as in D5.1/D5.6 — α reads x from the m-operation
// that produced version ts(start(α))[x] of x.
type Record struct {
	Proc   int
	Update bool
	// Seq is the total-order position for updates synchronized by atomic
	// broadcast; -1 for queries and for protocols that synchronize per
	// object instead of globally.
	Seq     int64
	Ops     []history.Op
	TSStart timestamp.TS
	TSEnd   timestamp.TS
	// Footprint is the set of objects for which TSStart/TSEnd carry
	// meaningful versions. For the Section 5 protocols the local copy is
	// a full consistent snapshot, so the footprint is all objects; the
	// object-locking protocol only snapshots the objects it locked.
	Footprint object.Set
	Inv       int64 // nanoseconds since run start
	Resp      int64
	Result    any

	// Level is the certified consistency level the protocol delivered
	// for this m-operation (history.LevelDefault for protocols that
	// predate levels). Updates are always history.LevelAll: the atomic
	// broadcast gives them the full total-order guarantee.
	Level history.Level
	// Responders lists, in ascending order, the processes whose replica
	// state this m-operation observed: the issuer for local reads, the
	// replicas that answered the query round for quorum/all reads.
	// Nil for updates and for protocols that predate levels.
	Responders []int
	// IsConsistent reports whether the requested level's contract was
	// met: all n replicas answered for ALL, a majority for QUORUM. A
	// force-completed (timed-out) query below its requirement records
	// false and is certified at the weaker level it actually achieved.
	IsConsistent bool

	// SourceTags, when non-nil, names the writer of every externally
	// read object directly. Protocols whose replicas may apply
	// concurrent updates in different orders (the causal protocol) have
	// no per-object total version order, so the version-vector scheme of
	// D5.1 does not apply; they tag writes instead.
	SourceTags map[object.ID]WriteTag
	// WriteTags, when non-nil, names the tags this record's writes
	// established (paired with SourceTags).
	WriteTags map[object.ID]WriteTag
}

// WriteTag identifies a write by its issuing process and that process's
// per-update sequence number.
type WriteTag struct {
	Proc int
	Seq  int64
}

// InitTag is the tag of the imaginary initial m-operation's writes.
var InitTag = WriteTag{Proc: -1, Seq: 0}

// VersionedWrites returns, per object the record wrote, the version it
// established (TSEnd's entry for that object). This is the (object,
// version) → writer mapping material used to derive reads-from.
func (r Record) VersionedWrites() map[object.ID]int64 {
	out := make(map[object.ID]int64)
	seen := make(map[object.ID]bool)
	for _, op := range r.Ops {
		if op.Kind == history.Write && !seen[op.Obj] {
			seen[op.Obj] = true
			out[op.Obj] = r.TSEnd.Get(op.Obj)
		}
	}
	return out
}

// Clock stamps invocation and response events: real monotonic time since
// an origin, nudged forward by at least 1ns per reading, so event times
// are unique and a process's next invocation always follows its last
// response (well-formedness) even where the wall clock stands still. It
// is safe for concurrent use.
type Clock struct {
	origin time.Time
	last   atomic.Int64
}

// NewClock returns a clock whose readings are nanoseconds since origin.
func NewClock(origin time.Time) *Clock { return &Clock{origin: origin} }

// Now returns the next reading, strictly greater than every earlier one.
func (c *Clock) Now() int64 {
	real := time.Since(c.origin).Nanoseconds()
	for {
		last := c.last.Load()
		if real <= last {
			real = last + 1
		}
		if c.last.CompareAndSwap(last, real) {
			return real
		}
	}
}
