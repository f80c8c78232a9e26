// Package msc implements the m-sequential-consistency protocol of
// Figure 4 of Mittal & Garg (1998), an extension of the Attiya–Welch
// construction to multi-object operations:
//
//	(A1) an update m-operation is atomically broadcast to all processes;
//	(A2) on delivery, each process applies it to its local copy of the
//	     shared objects, bumping the version timestamp of every object
//	     written; the issuing process generates the response;
//	(A3) a query m-operation reads the issuing process's local copy
//	     directly — no communication at all.
//
// Queries are therefore local and fast but may observe stale state;
// Theorem 15 proves every execution is m-sequentially consistent, and
// the recorded histories are re-verified by the checker in tests.
package msc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/abcast"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/recovery"
	"moc/internal/timestamp"
)

// Config parameterizes the protocol.
type Config struct {
	// Procs is the number of processes.
	Procs int
	// Reg is the shared-object registry.
	Reg *object.Registry
	// Broadcast is the atomic broadcast service; the protocol takes
	// ownership and closes it.
	Broadcast abcast.Broadcaster
	// Clock returns nanoseconds since the run origin; it must be
	// monotonic. Defaults to a time.Since-based clock.
	Clock func() int64
}

// Protocol is a running instance of the Figure 4 protocol.
type Protocol struct {
	cfg    Config
	states []*procState
	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
	nextID atomic.Int64
}

// procState is one process's replica. Two lock levels split the old
// process-wide mutex so queries on disjoint footprints never contend
// with updates:
//
//   - mu serializes the writers (the delivery loop's applies and
//     checkpoint adoption) and guards pending/applied. Whole-replica
//     readers (Snapshot, LocalTS) also take it: with every writer
//     excluded, the full values/ts vectors are stable.
//   - locks[x] guards values[x] and ts[x] against concurrent queries:
//     writers additionally write-lock their footprint, queries
//     read-lock theirs — and nothing else. A query over {y} proceeds
//     while an update writes {x}.
//
// Acquisition order is mu first, then object locks in ascending ID
// order; queries take only object locks, ascending. One global order
// means no deadlock. This split is sound for history well-formedness
// because every consumer of a Record is footprint-scoped: the trace
// reads-from derivation and the monitor axioms only inspect timestamp
// entries inside Record.Footprint, which applyFootprint now declares
// honestly instead of over-approximating with the full object set.
type procState struct {
	mu      sync.Mutex
	locks   []sync.RWMutex // one per object; guards values[x] and ts[x]
	values  []object.Value
	ts      timestamp.TS
	pending map[int64]*pendingUpdate
	// applied counts the total-order updates reflected in values/ts: the
	// replica state equals the first applied deliveries of the broadcast
	// order. A recovery checkpoint advances it past the crash outage; the
	// delivery loop then skips redelivered updates below it.
	applied int64
}

// footprintIDs returns fp's ids clipped to the replica's object range,
// ascending (Set.IDs is sorted — the shared lock-acquisition order).
// Out-of-range ids carry no lock; the Recorder rejects their accesses
// before any state is touched, so skipping them is race-safe.
func (st *procState) footprintIDs(fp object.Set) []object.ID {
	ids := fp.IDs()
	n := object.ID(len(st.values))
	lo := 0
	for lo < len(ids) && ids[lo] < 0 {
		lo++
	}
	hi := len(ids)
	for hi > lo && ids[hi-1] >= n {
		hi--
	}
	return ids[lo:hi]
}

// pendingUpdate tracks one in-flight update from issuance (A1) to the
// issuer's apply (A2): the completion callback and the invocation
// timestamp captured at submit time. Whoever deletes it from
// procState.pending under st.mu owns the one call of done.
type pendingUpdate struct {
	done func(mop.Record, error)
	inv  int64
}

// updatePayload is the broadcast wire payload; exported fields let a
// serializing transport (internal/transport) marshal it.
type updatePayload struct {
	ReqID int64
	From  int
	Proc  mop.Procedure
}

// RoutingFootprint lets a sharded broadcast group (internal/shard)
// route the update by the objects it touches.
func (m updatePayload) RoutingFootprint() []object.ID {
	return m.Proc.Footprint().IDs()
}

// queryToucher is implemented by the sharded broadcast group: queries
// report their footprints so the group can anchor the issuing process's
// next update after the per-shard prefixes the query observed.
type queryToucher interface {
	TouchQuery(proc int, fp []object.ID)
}

// ErrClosed is returned by Exec after Close.
var ErrClosed = errors.New("msc: protocol closed")

// New starts the protocol: one delivery loop (action A2) per process.
func New(cfg Config) (*Protocol, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("msc: invalid proc count %d", cfg.Procs)
	}
	if cfg.Reg == nil || cfg.Broadcast == nil {
		return nil, errors.New("msc: registry and broadcaster are required")
	}
	if cfg.Clock == nil {
		origin := time.Now()
		cfg.Clock = func() int64 { return time.Since(origin).Nanoseconds() }
	}
	p := &Protocol{
		cfg:    cfg,
		states: make([]*procState, cfg.Procs),
		stop:   make(chan struct{}),
	}
	for i := range p.states {
		p.states[i] = &procState{
			locks:   make([]sync.RWMutex, cfg.Reg.Len()),
			values:  make([]object.Value, cfg.Reg.Len()),
			ts:      timestamp.New(cfg.Reg.Len()),
			pending: make(map[int64]*pendingUpdate),
		}
	}
	for i := 0; i < cfg.Procs; i++ {
		p.wg.Add(1)
		go p.deliveryLoop(i)
	}
	return p, nil
}

// Exec runs procedure pr as an m-operation of process proc and blocks
// until the response event. The protocol's queries are local by
// construction (A3), so the only levels it accepts are the zero level
// and history.LevelOne — both name the Figure 4 behavior; the quorum
// and all levels need the m-lin query round and are rejected. Each
// sequential thread of control (Section 2.1) corresponds to one caller;
// distinct callers may share a process id concurrently only through
// Submit's pipelined update path (the store layer keeps their
// recorded histories well-formed by modelling each issuing lane as its
// own process). An update waits for Submit's done and stamps Resp.
func (p *Protocol) Exec(proc int, pr mop.Procedure, opts mop.ExecOptions) (mop.Record, error) {
	switch opts.Level {
	case history.LevelDefault, history.LevelOne:
	default:
		return mop.Record{}, fmt.Errorf("msc: consistency level %q requires an m-lin store", opts.Level)
	}
	if pr.MayWrite() {
		var rec mop.Record
		ch := make(chan error, 1)
		if err := p.Submit(proc, pr, opts, func(r mop.Record, err error) { rec = r; ch <- err }); err != nil {
			return mop.Record{}, err
		}
		err := <-ch
		rec.Resp = p.cfg.Clock()
		return rec, err
	}
	if p.closed.Load() {
		return mop.Record{}, ErrClosed
	}
	if proc < 0 || proc >= p.cfg.Procs {
		return mop.Record{}, fmt.Errorf("msc: invalid process %d", proc)
	}
	return p.executeQuery(proc, pr, opts.Level)
}

// Submit issues an update m-operation (A1) without waiting for the
// issuer's apply (A2): the pipelined issuance path. Any number of
// updates may be in flight per process; the broadcast order fixes their
// relative order. done receives the response with Inv stamped at
// submission and Resp left zero: done runs right after the local apply,
// so the caller stamps Resp at its own response step. done is called
// exactly once, without any protocol lock held: by the issuer's
// delivery loop (A2: "the issuing process generates the response"), or
// with an error when the update is subsumed by a recovery checkpoint,
// its broadcast fails, or Close finds it pending. Because the delivery
// loop calls it, done must not block for long and must not call Close.
// An error return means the update was not issued and done will not be
// called.
func (p *Protocol) Submit(proc int, pr mop.Procedure, _ mop.ExecOptions, done func(mop.Record, error)) error {
	if proc < 0 || proc >= p.cfg.Procs {
		return fmt.Errorf("msc: invalid process %d", proc)
	}
	if !pr.MayWrite() {
		return errors.New("msc: Submit requires an update m-operation")
	}
	st := p.states[proc]
	reqID := p.nextID.Add(1)
	pu := &pendingUpdate{done: done, inv: p.cfg.Clock()}
	st.mu.Lock()
	// Checked under st.mu: Close sets closed before it takes the pending
	// maps, so an update registered here is either seen by Close or not
	// registered at all.
	if p.closed.Load() {
		st.mu.Unlock()
		return ErrClosed
	}
	st.pending[reqID] = pu
	st.mu.Unlock()

	payload := updatePayload{ReqID: reqID, From: proc, Proc: pr}
	if err := p.cfg.Broadcast.Broadcast(proc, payload, mop.PayloadBytes(pr)); err != nil {
		// The update may still have been ordered, or Close may have
		// swept it: complete it here only if it is still pending.
		st.mu.Lock()
		_, mine := st.pending[reqID]
		delete(st.pending, reqID)
		st.mu.Unlock()
		if mine {
			done(mop.Record{}, fmt.Errorf("msc: broadcast: %w", err))
		}
	}
	return nil
}

// executeQuery implements A3: apply to the local copy, atomically over
// the query's footprint. Queries take only the per-object read locks of
// their declared footprint — never the writer mutex — in the shared
// ascending order, two-phase: every lock is held before the first read
// and released only after the record is complete, so the footprint
// snapshot is atomic even though disjoint queries and updates run
// concurrently. The Recorder blocks any access outside the footprint
// before it touches state, which is what makes footprint-scoped locking
// race-safe against a misdeclared procedure.
func (p *Protocol) executeQuery(proc int, pr mop.Procedure, level history.Level) (mop.Record, error) {
	st := p.states[proc]
	inv := p.cfg.Clock()
	fp := pr.Footprint()
	ids := st.footprintIDs(fp)
	// Under a sharded broadcaster, anchor the process's next update
	// after the per-shard prefixes this query is about to observe:
	// reading shard B then writing shard A must order the write after
	// the observed state, which independent lanes alone do not give.
	if toucher, ok := p.cfg.Broadcast.(queryToucher); ok {
		toucher.TouchQuery(proc, ids)
	}
	for _, x := range ids {
		st.locks[x].RLock()
	}
	// The timestamp vector is full-length but only footprint entries are
	// populated — entries outside the held locks may be mid-write, and
	// no consumer of a query record looks beyond its footprint.
	tsStart := timestamp.New(len(st.ts))
	for _, x := range ids {
		tsStart.Set(x, st.ts.Get(x))
	}
	rec := mop.NewRecorder(st.values, pr)
	result := pr.Run(rec)
	err := rec.Err()
	ops := rec.Ops()
	for i := len(ids) - 1; i >= 0; i-- {
		st.locks[ids[i]].RUnlock()
	}
	if err != nil {
		return mop.Record{}, err
	}
	// An explicit ONE is certified as such; the zero level keeps its
	// pre-level identity (checked at the store's native condition, which
	// for this protocol is the same m-SC guarantee).
	certified := history.LevelDefault
	if level == history.LevelOne {
		certified = history.LevelOne
	}
	return mop.Record{
		Proc:         proc,
		Update:       false,
		Seq:          -1,
		Ops:          ops,
		TSStart:      tsStart,
		TSEnd:        tsStart.Clone(), // queries bump nothing
		Footprint:    fp,
		Result:       result,
		Inv:          inv,
		Resp:         p.cfg.Clock(),
		Level:        certified,
		Responders:   []int{proc},
		IsConsistent: true,
	}, nil
}

// deliveryLoop implements A2 for one process. The issuer's own updates
// complete here: their done callbacks run on this goroutine, after
// st.mu is released.
func (p *Protocol) deliveryLoop(proc int) {
	defer p.wg.Done()
	st := p.states[proc]
	deliveries := p.cfg.Broadcast.Deliveries(proc)
	for {
		select {
		case <-p.stop:
			return
		case d := <-deliveries:
			payload, ok := d.Payload.(updatePayload)
			if !ok {
				continue
			}
			st.mu.Lock()
			var pu *pendingUpdate
			if payload.From == proc {
				pu = st.pending[payload.ReqID]
				delete(st.pending, payload.ReqID)
			}
			if d.Shards == nil && d.Seq < st.applied {
				// Already covered by an adopted recovery checkpoint: the
				// effects are in the replica state, so applying again would
				// double-count. An issuer still waiting locally (it crashed
				// between broadcast and delivery) gets an error outcome.
				// Sharded composite Seqs are not monotone per replica
				// stream (and recovery is disabled under sharding), so the
				// skip only applies to single-lane deliveries.
				st.mu.Unlock()
				if pu != nil {
					pu.done(mop.Record{}, errors.New("msc: update subsumed by recovery checkpoint"))
				}
				continue
			}
			rec, err := st.applyUpdate(payload.Proc, payload.From, d.Seq, pu != nil)
			if d.Shards == nil {
				st.applied = d.Seq + 1
			}
			st.mu.Unlock()
			if pu != nil {
				// A2: "the issuing process generates the response" — Inv was
				// stamped at submission; done stamps Resp.
				rec.Inv = pu.inv
				rec.Level = history.LevelAll
				rec.IsConsistent = true
				pu.done(rec, err)
			}
		}
	}
}

// applyUpdate runs update pr against the replica (A2), bumping version
// timestamps for written objects, and captures the Record when issuer
// is set — only the issuing process responds, so the other replicas
// build none. The caller must hold st.mu (the writer mutex);
// applyUpdate additionally write-locks the footprint so concurrent
// footprint-disjoint queries keep running. The full-vector timestamp
// clones are race-safe even for entries outside the footprint: st.mu
// excludes every other writer, and queries only read.
//
// A contract violation (write by a query, footprint escape) aborts the
// remaining accesses deterministically — every replica observes the same
// prefix of effects — so replicas stay identical; the error is reported
// to the issuer.
func (st *procState) applyUpdate(pr mop.Procedure, proc int, seq int64, issuer bool) (mop.Record, error) {
	fp := pr.Footprint()
	ids := st.footprintIDs(fp)
	for _, x := range ids {
		st.locks[x].Lock()
	}
	var tsStart, tsEnd timestamp.TS
	if issuer {
		tsStart = st.ts.Clone()
	}
	rec := mop.NewRecorder(st.values, pr)
	result := pr.Run(rec)
	for _, x := range rec.Written().IDs() {
		st.ts.Bump(x)
	}
	if issuer {
		tsEnd = st.ts.Clone()
	}
	for i := len(ids) - 1; i >= 0; i-- {
		st.locks[ids[i]].Unlock()
	}
	if err := rec.Err(); err != nil || !issuer {
		return mop.Record{}, err
	}
	return mop.Record{
		Proc:      proc,
		Update:    seq >= 0,
		Seq:       seq,
		Ops:       rec.Ops(),
		TSStart:   tsStart,
		TSEnd:     tsEnd,
		Footprint: fp,
		Result:    result,
	}, nil
}

// Snapshot captures process proc's current checkpoint for state
// transfer (recovery.State). Holding the writer mutex is enough for a
// stable full-vector read: every mutator of values/ts holds it, and
// concurrent queries only read.
func (p *Protocol) Snapshot(proc int) recovery.Checkpoint {
	st := p.states[proc]
	st.mu.Lock()
	defer st.mu.Unlock()
	return recovery.Checkpoint{
		Values:  append([]object.Value(nil), st.values...),
		TS:      append([]int64(nil), st.ts...),
		Applied: st.applied,
	}
}

// Adopt installs ck into process proc if it is strictly fresher than the
// local replica state (recovery.State). The delivery loop skips the
// redelivered updates the checkpoint subsumes.
func (p *Protocol) Adopt(proc int, ck recovery.Checkpoint) bool {
	st := p.states[proc]
	st.mu.Lock()
	defer st.mu.Unlock()
	if ck.Applied <= st.applied || len(ck.Values) != len(st.values) || len(ck.TS) != len(st.ts) {
		return false
	}
	// Adoption rewrites every object, so unlike a footprint-scoped
	// update it must write-lock the whole replica against in-flight
	// queries.
	for i := range st.locks {
		st.locks[i].Lock()
	}
	copy(st.values, ck.Values)
	copy(st.ts, ck.TS)
	for i := len(st.locks) - 1; i >= 0; i-- {
		st.locks[i].Unlock()
	}
	st.applied = ck.Applied
	return true
}

// LocalTS returns a copy of process proc's current version vector
// (test instrumentation).
func (p *Protocol) LocalTS(proc int) timestamp.TS {
	st := p.states[proc]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ts.Clone()
}

// Close shuts the protocol down, including the broadcaster it owns.
// Every still-pending asynchronous completion is fulfilled with
// ErrClosed so no pipelined issuer waits forever.
func (p *Protocol) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	p.cfg.Broadcast.Close()
	p.wg.Wait()
	for _, st := range p.states {
		st.mu.Lock()
		pending := st.pending
		st.pending = make(map[int64]*pendingUpdate)
		st.mu.Unlock()
		for _, pu := range pending {
			pu.done(mop.Record{}, ErrClosed)
		}
	}
}
