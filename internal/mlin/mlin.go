// Package mlin implements the m-linearizability protocol of Figure 6 of
// Mittal & Garg (1998) for fully asynchronous systems — no clock
// synchronization or message-delay bound is assumed — and, on the same
// replica, Figure 4's m-sequential consistency (see Sequential below):
//
//	(A1) an update m-operation is atomically broadcast to all processes;
//	(A2) on delivery, each process applies it to its local copy (myX,
//	     myts), bumping written objects' versions; the issuer responds;
//	(A3) a query m-operation sends a "query" message to all processes;
//	(A4) on receiving a "query", a process replies with its local copy
//	     and timestamps;
//	(A5) the issuer merges responses, keeping the most recent version of
//	     every object (othX, othts);
//	(A6) once all processes have responded, the query reads the merged
//	     copy and responds.
//
// The query round-trip is what upgrades m-sequential consistency to
// m-linearizability (Theorem 20): a query can no longer miss an update
// whose response preceded the query's invocation in real time, because
// at least the updating process itself answers with the new version.
//
// The closing remark of Section 5.2 — "the protocol is still correct if
// only the relevant copies of the shared objects and their timestamp is
// sent" — is implemented as the RelevantOnly option and measured by
// experiment E9.
//
// # Consistency levels
//
// Exec takes a per-request consistency level that tunes step A6's
// completion rule (DESIGN.md §9):
//
//   - history.LevelAll (and LevelDefault) is Figure 6 verbatim: wait
//     for all Procs responses.
//   - history.LevelQuorum completes once a majority ⌈(n+1)/2⌉ has
//     answered (the SC-ABD read rule), so one slow or crashed peer no
//     longer sets the query latency floor.
//   - history.LevelOne skips the query round entirely and reads the
//     issuer's local copy — the Figure 4 (m-SC) query rule.
//
// QUORUM reads are only m-linearizable if updates carry a matching
// write phase: Figure 6 completes an update at the issuer's own apply,
// which is sound when every query solicits every process (the issuer
// itself always answers) but not when a majority suffices — a read
// majority avoiding the issuer could miss a completed update. So, as in
// SC-ABD, every replica acknowledges each apply back to the update's
// issuer, and the update responds only once a majority (the issuer's
// apply included) has acknowledged. Any read majority then intersects
// the write majority, and the componentwise-max merge of snapshots of
// prefixes of one total order recovers the longest prefix — no
// completed update can be missed at QUORUM or ALL. The write phase
// costs n-1 small acks per update on the query network and defers the
// update's response to one extra one-way delay past the second-fastest
// replica's apply; it does not delay the applies themselves, which the
// broadcast drives independently.
//
// The write phase alone is not enough: a read can also observe an
// update that is applied somewhere but not yet majority-applied (its
// write phase still in flight), and a later majority read could then
// miss it — the classic new/old inversion that makes quorum reads
// without a write-back non-linearizable (ABD's reason for its
// read-side write-back round). Strong queries therefore finish with a
// read barrier: after merging, the query computes the total-order
// prefix its snapshot covers and responds only once a majority of
// replicas is known to have applied that prefix — evidence comes from
// the responses' advertised applied counts, the issuer's own applies,
// and, when still short, idempotent re-probes of the lagging replicas
// (the same query message; only the advertised applied count is
// consumed). This is the ReadIndex rule: nothing is written back
// because the prefix is already in the broadcast order and reaches
// every replica anyway — the barrier just waits for that to be
// *known*, so any later strong read's majority intersects a majority
// holding the prefix. A query whose barrier cannot be confirmed within
// the retry budget is certified LevelOne (IsConsistent=false): it may
// have read an unstable prefix and only the m-SC guarantee is claimed.
//
// Two mechanisms keep mixed-level histories coherent. First, every
// completed query folds the issuer's own replica into the merged copy,
// so no query — however few peers answered — ever reads state older
// than its issuer's. Second, each process keeps a session floor: the
// largest total-order prefix any of its completed queries has observed
// (responses advertise their replica's applied count). A later query at
// the same process waits until it covers that floor — locally applied
// updates for ONE, max(responses, local) for QUORUM/ALL — which
// restores per-process monotonicity when strong and weak reads
// interleave; without it, a ONE read issued after a fresh QUORUM read
// could observe an older local replica and the merged history would not
// even be m-sequentially consistent.
//
// # Sequential
//
// Config.Sequential runs Figure 4 (m-SC by Theorem 15; reads may be
// stale), which shares A1–A2 and answers every query from the local
// copy: no query network, no write phase (an update responds at the
// issuer's apply), QUORUM and ALL rejected. Nothing raises a session
// floor, so local reads take only their footprint's object read locks.
// Over a sharded group, a query that is not one point in its session's
// lane schedule is broadcast like an update instead and answered at
// the issuer's apply (see localReader; DESIGN.md §11).
package mlin

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/abcast"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/network"
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
	// Broadcast is the atomic broadcast service for updates; the
	// protocol takes ownership and closes it.
	Broadcast abcast.Broadcaster
	// Sequential runs Figure 4 (see the package comment); the query
	// network fields below are then ignored.
	Sequential bool
	// Seed, MinDelay and MaxDelay parameterize the query network.
	Seed               int64
	MinDelay, MaxDelay time.Duration
	// Faults optionally injects delivery faults into the query network
	// (the broadcaster's faults are configured on the broadcaster).
	Faults *network.Faults
	// RelevantOnly, when true, restricts query responses to the query's
	// footprint (Section 5.2's final optimization); otherwise whole
	// copies are shipped, exactly as in Figure 6.
	RelevantOnly bool
	// QueryTimeout bounds how long a query waits for its response set.
	// Zero keeps Figure 6's unbounded wait. With a bound, the query
	// re-solicits the missing processes up to QueryRetries times and
	// then completes with the responses gathered — safe under
	// crash-stop because every update is applied at all live processes,
	// so any response set that includes one live process per relevant
	// update (the issuer's replica is always folded in) carries the
	// freshest versions; see DESIGN.md.
	QueryTimeout time.Duration
	// QueryRetries is the number of re-solicitations before a bounded
	// query completes partially. Ignored when QueryTimeout is zero.
	QueryRetries int
	// Links optionally supplies the query-network transport (channel name
	// "mlin.query"); nil uses the simulated network stack.
	Links network.Factory
	// Clock returns nanoseconds since the run origin and must be strictly
	// increasing; nil uses a mop.Clock started at construction.
	Clock func() int64
	// Shards is the number of broadcast lanes of a sharded Broadcast
	// group (internal/shard); 0 or 1 means a single total order. With
	// K > 1 every applied-prefix quantity in the protocol — the replica
	// applied counts, the session floor, response advertisements, and
	// the read barrier — becomes a per-shard vector of length K, with
	// componentwise dominance replacing scalar comparison: per-shard
	// schedules are deterministic across replicas, so per-shard counts
	// are cross-replica comparable exactly like the scalar was.
	Shards int
}

// Protocol is a running instance of the Figure 6 protocol.
type Protocol struct {
	cfg  Config
	qnet network.Link // nil when Sequential
	// The broadcaster's optional session hooks, resolved once by New:
	// toucher on an m-lin store, reader on an m-SC one (both nil
	// unless the broadcaster is a sharded group).
	toucher queryToucher
	reader  localReader
	states  []*procState
	stop    chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup
	nextID  atomic.Int64
}

// procState is one process's replica. Writers hold mu and write-lock the
// objects they touch; local reads read-lock their footprint's objects.
// Lock order: mu, then object locks ascending.
type procState struct {
	mu      sync.Mutex
	locks   []sync.RWMutex // one per object; guards values[x] and ts[x]
	values  []object.Value // myX
	ts      timestamp.TS   // myts
	pendUpd map[int64]*pendingUpdate
	pendQry map[int64]*queryState
	// applied counts, per shard, the schedule-order updates reflected in
	// values/ts (length 1 without sharding, where entry 0 is the
	// classic scalar: a recovery checkpoint advances it past a crash
	// outage and the delivery loop skips redelivered updates below it).
	applied []int64
	// floor is the session floor: the largest applied prefix (per
	// shard) any completed query of this process has observed. Later
	// queries wait until they cover it componentwise (see the package
	// comment), so a weak read issued after a strong one can never
	// travel backwards in any shard's schedule. cond (on mu) is
	// broadcast whenever applied advances.
	floor []int64
	cond  *sync.Cond
}

// footprintIDs returns fp's ids in lock order (ascending), clipped to the
// replica's objects: the Recorder rejects any access outside them.
func (st *procState) footprintIDs(fp object.Set) []object.ID {
	ids := fp.IDs()
	for len(ids) > 0 && ids[0] < 0 {
		ids = ids[1:]
	}
	for len(ids) > 0 && int(ids[len(ids)-1]) >= len(st.values) {
		ids = ids[:len(ids)-1]
	}
	return ids
}

// queryState is a strong query's state machine, driven under st.mu by
// the loops and timer that see its events (see advance).
type queryState struct {
	pr    mop.Procedure
	level history.Level
	inv   int64
	msg   queryMsg // re-sent by re-solicitations and barrier probes
	bytes int
	// timer is the response deadline of a bounded query, then the
	// barrier's re-probe; retries counts the re-sends left in the phase.
	timer   *time.Timer
	retries int

	othX  []object.Value
	othts timestamp.TS
	// waiting counts down the responses that complete the query (Procs
	// for ALL, a majority for QUORUM).
	waiting int
	// responded marks which processes have been merged into othX/othts,
	// so the duplicate responses that re-solicitation provokes are
	// merged (and counted) at most once per process — and so the
	// completed query can report exactly which replicas it observed.
	responded  []bool
	responders []int // fixed when the query enters the read barrier
	// respApplied is the componentwise-largest applied vector advertised
	// by any merged response: the per-shard prefix the merged copy is
	// known to cover (each component came from a response whose values
	// reflect at least that shard prefix, and the per-object max merge
	// preserves coverage per shard).
	respApplied []int64
	done        func(mop.Record, error)

	// Read-barrier state (the SC-ABD write-back analogue; see the
	// package comment). appliedBy[r] is the componentwise-largest
	// applied vector replica r has ever advertised for this query (nil
	// until heard from) — unlike the merge, it keeps absorbing
	// duplicate and post-completion responses, since barrier re-probes
	// exist precisely to refresh it. barrier, once non-nil, is the
	// covered prefix the merged copy reflects; barrierDone is set when a
	// majority of replicas is known to have applied it.
	appliedBy   [][]int64
	barrier     []int64
	barrierDone bool
}

// noteEvidence sets barrierDone once a majority of replicas is known to
// have applied the barrier prefix (componentwise dominance). Callers
// hold the proc's state mutex.
func (qs *queryState) noteEvidence(quorum int) {
	if qs.barrier == nil || qs.barrierDone {
		return
	}
	n := 0
	for _, a := range qs.appliedBy {
		if dominates(a, qs.barrier) {
			n++
		}
	}
	if n >= quorum {
		qs.barrierDone = true
	}
}

// noteApplied absorbs one replica's advertised applied vector into the
// barrier evidence. Vectors of the wrong length (a peer running a
// different shard map) are ignored rather than trusted.
func (qs *queryState) noteApplied(r int, applied []int64, shards int) {
	if len(applied) != shards {
		return
	}
	if qs.appliedBy[r] == nil {
		qs.appliedBy[r] = append([]int64(nil), applied...)
		return
	}
	maxInto(qs.appliedBy[r], applied)
}

// dominates reports a >= b componentwise; a nil vector dominates
// nothing (and an empty barrier nothing needs).
func dominates(a, b []int64) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

// maxInto folds src into dst componentwise (equal lengths).
func maxInto(dst, src []int64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// The wire payload types below are marshalled by their MarshalWire
// methods (wire.go) over a serializing transport (internal/transport).

type updatePayload struct {
	ReqID int64
	From  int
	Proc  mop.Procedure
	// lane is the issuing lane of the operation's session. Only the
	// issuer's broadcaster reads it, so it stays off the wire.
	lane int
}

// RoutingFootprint and RoutingLane let a sharded broadcast group
// (internal/shard) route the update by its footprint and session.
func (m updatePayload) RoutingFootprint() []object.ID { return m.Proc.Footprint().IDs() }
func (m updatePayload) RoutingLane() int              { return m.lane }

// queryToucher is implemented by sharded broadcast groups, for m-lin
// stores: queries have no broadcast of their own, but a query that
// observes a shard's state still orders the session after that shard's
// applied prefix, so the group must anchor the session's next update
// behind it.
type queryToucher interface {
	TouchQuery(proc, lane int, fp []object.ID)
}

// localReader is implemented by sharded broadcast groups, for m-SC
// stores: it admits a query to the local copy only where the read is
// one point in a lane schedule after the session's previous operation
// (see shard.Group). A query it refuses is broadcast as a read-only
// m-operation and answered at the issuer's apply.
type localReader interface {
	ReadLocal(proc, lane int, fp []object.ID) bool
}

// pendingUpdate tracks one in-flight update from issuance (A1) through
// the write quorum: the completion callback, the invocation timestamp
// captured at submit time, and the write-phase state — the outcome of
// the issuer's own apply (A2) plus the set of replicas known to have
// applied the update. The update responds only once a majority has
// (the SC-ABD write rule); see the package comment.
type pendingUpdate struct {
	done  func(mop.Record, error)
	inv   int64
	level history.Level // LevelAll, or an ordered read's requested level
	wp    *writePhase   // nil when Sequential: no write phase
}

type writePhase struct {
	// rec holds the issuer's apply until the majority; applied marks it.
	rec     mop.Record
	applied bool
	// ackFrom marks replicas whose apply of this update is known (the
	// issuer's own apply counts), so duplicate acks are counted once.
	ackFrom []bool
	acks    int
}

// ack counts r's apply once and reports whether quorum replicas have.
func (wp *writePhase) ack(r, quorum int) bool {
	if !wp.ackFrom[r] {
		wp.ackFrom[r] = true
		wp.acks++
	}
	return wp.acks >= quorum
}

type queryMsg struct {
	ReqID int64
	Objs  []object.ID // nil means "send everything" (Figure 6 verbatim)
}

// applyAck is the write-phase acknowledgement (SC-ABD's write round):
// process From has applied — or holds a checkpoint subsuming — the
// update the issuer submitted as ReqID. The issuer completes the update
// once a majority of replicas (its own apply included) has acknowledged,
// which is what entitles QUORUM queries to m-linearizability: any read
// majority intersects the write majority, so at least one responder's
// snapshot carries the update.
type applyAck struct {
	ReqID int64
	From  int
}

type queryResp struct {
	ReqID  int64
	Objs   []object.ID // objects covered (all, in whole-copy mode)
	Values []object.Value
	TS     []int64
	// Applied is the responder's per-shard applied update counts at
	// snapshot time: the schedule prefix its copy reflects (length 1
	// without sharding). The issuer folds the componentwise max over
	// merged responses into its session floor.
	Applied []int64
}

// ErrClosed is returned by Exec after Close.
var ErrClosed = errors.New("mlin: protocol closed")

// New starts the protocol: a delivery loop (A2) and, unless Sequential,
// a message loop (A4/A5/A6 plumbing) per process.
func New(cfg Config) (*Protocol, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("mlin: invalid proc count %d", cfg.Procs)
	}
	if cfg.Reg == nil || cfg.Broadcast == nil {
		return nil, errors.New("mlin: registry and broadcaster are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = mop.NewClock(time.Now()).Now
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("mlin: invalid shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	p := &Protocol{
		cfg:    cfg,
		states: make([]*procState, cfg.Procs),
		stop:   make(chan struct{}),
	}
	if cfg.Sequential {
		p.reader, _ = cfg.Broadcast.(localReader)
	} else {
		p.toucher, _ = cfg.Broadcast.(queryToucher)
		var err error
		p.qnet, err = cfg.Links.Build("mlin.query", network.Config{
			Procs:    cfg.Procs,
			Seed:     cfg.Seed,
			MinDelay: cfg.MinDelay,
			MaxDelay: cfg.MaxDelay,
			Faults:   cfg.Faults,
		})
		if err != nil {
			return nil, err
		}
	}
	for i := range p.states {
		st := &procState{
			locks:   make([]sync.RWMutex, cfg.Reg.Len()),
			values:  make([]object.Value, cfg.Reg.Len()),
			ts:      timestamp.New(cfg.Reg.Len()),
			pendUpd: make(map[int64]*pendingUpdate),
			pendQry: make(map[int64]*queryState),
			applied: make([]int64, cfg.Shards),
			floor:   make([]int64, cfg.Shards),
		}
		st.cond = sync.NewCond(&st.mu)
		p.states[i] = st
	}
	for i := 0; i < cfg.Procs; i++ {
		p.wg.Add(1)
		go p.deliveryLoop(i)
		if !cfg.Sequential {
			p.wg.Add(1)
			go p.messageLoop(i)
		}
	}
	return p, nil
}

// quorum is the majority responder count ⌈(n+1)/2⌉.
func (p *Protocol) quorum() int { return p.cfg.Procs/2 + 1 }

// need returns the responder count that completes a query at the given
// level (the level has already been validated).
func (p *Protocol) need(level history.Level) int {
	if level == history.LevelQuorum {
		return p.quorum()
	}
	return p.cfg.Procs
}

// Exec runs procedure pr as an m-operation of process proc and blocks
// until the response event. Updates ignore opts.Level: they always flow
// through the atomic broadcast. Queries complete per opts.Level — ONE
// reads the local copy, QUORUM waits for a majority, ALL (and the zero
// level) for every process. Each sequential thread of control
// corresponds to one caller; distinct callers may share a process id
// concurrently only through Submit's pipelined update path (the
// store layer keeps their recorded histories well-formed by modelling
// each issuing lane as its own process). Queries remain safe to issue
// concurrently with in-flight updates. Exec is a blocking wrapper over
// Submit that stamps Resp.
func (p *Protocol) Exec(proc int, pr mop.Procedure, opts mop.ExecOptions) (mop.Record, error) {
	var rec mop.Record
	ch := make(chan error, 1)
	if err := p.Submit(proc, 0, pr, opts, func(r mop.Record, err error) { rec = r; ch <- err }); err != nil {
		return mop.Record{}, err
	}
	err := <-ch
	rec.Resp = p.cfg.Clock()
	return rec, err
}

// Submit issues m-operation pr of the session on issuing lane lane of
// process proc without waiting for its completion; done
// gets the record (Inv stamped, Resp left to the caller) or an error
// exactly once, never under a protocol lock, on the goroutine that
// completes it: a local read on the caller, a strong query on the loop
// or timer that settles its read barrier, an update (A1) or an ordered
// m-SC read on the loop that sees a majority of replicas acknowledge
// applying it (the write quorum — see the package comment; for m-SC the
// issuer's own apply). Close fails what is pending with
// ErrClosed; the delete from a pending map under the state mutex picks
// the one completer. done must not block for long or call Close. An
// error return means nothing was issued and done will not be called.
func (p *Protocol) Submit(proc, lane int, pr mop.Procedure, opts mop.ExecOptions, done func(mop.Record, error)) error {
	if proc < 0 || proc >= p.cfg.Procs || lane < 0 {
		return fmt.Errorf("mlin: invalid process %d lane %d", proc, lane)
	}
	level := history.LevelAll
	if !pr.MayWrite() {
		level = opts.Level
		switch {
		case level == history.LevelOne || (p.cfg.Sequential && level == history.LevelDefault):
			fp := pr.Footprint()
			ids := p.states[proc].footprintIDs(fp)
			if p.reader == nil || p.reader.ReadLocal(proc, lane, ids) {
				done(p.executeLocalQuery(proc, lane, pr, fp, ids, level))
				return nil
			}
			// Broadcast below as an ordered read (see localReader).
		case p.cfg.Sequential:
			return fmt.Errorf("mlin: consistency level %q requires an m-lin store", level)
		case level == history.LevelDefault || level == history.LevelQuorum || level == history.LevelAll:
			return p.executeQuery(proc, lane, pr, level, done)
		default:
			return fmt.Errorf("mlin: invalid consistency level %d", int(level))
		}
	}
	st := p.states[proc]
	reqID := p.nextID.Add(1)
	pu := &pendingUpdate{done: done, inv: p.cfg.Clock(), level: level}
	if !p.cfg.Sequential {
		pu.wp = &writePhase{ackFrom: make([]bool, p.cfg.Procs)}
	}
	st.mu.Lock()
	// Under st.mu: Close marks closed before it sweeps the pending maps.
	if p.closed.Load() {
		st.mu.Unlock()
		return ErrClosed
	}
	st.pendUpd[reqID] = pu
	st.mu.Unlock()

	if err := p.cfg.Broadcast.Broadcast(proc, updatePayload{ReqID: reqID, From: proc, Proc: pr, lane: lane}, mop.PayloadBytes(pr)); err != nil {
		// The update may have been ordered anyway, or swept by Close.
		st.mu.Lock()
		_, mine := st.pendUpd[reqID]
		delete(st.pendUpd, reqID)
		st.mu.Unlock()
		if mine {
			done(mop.Record{}, fmt.Errorf("mlin: broadcast: %w", err))
		}
	}
	return nil
}

// executeLocalQuery is the Figure 4 query rule: read the local copy under
// its footprint's read locks. An m-lin replica reads under st.mu, after
// waiting out the session floor (see the package comment).
func (p *Protocol) executeLocalQuery(proc, lane int, pr mop.Procedure, fp object.Set, ids []object.ID, level history.Level) (mop.Record, error) {
	st := p.states[proc]
	inv := p.cfg.Clock()
	if p.toucher != nil {
		p.toucher.TouchQuery(proc, lane, ids)
	}
	if !p.cfg.Sequential {
		st.mu.Lock()
		defer st.mu.Unlock()
		for !dominates(st.applied, st.floor) && !p.closed.Load() {
			st.cond.Wait()
		}
		maxInto(st.floor, st.applied)
	}
	if p.closed.Load() {
		return mop.Record{}, ErrClosed
	}
	rec, err := st.read(pr, fp, ids, proc)
	rec.Inv, rec.Level = inv, level
	return rec, err
}

// read runs query pr on the local copy under its footprint's read
// locks and returns its record, Inv and Level left to the caller.
func (st *procState) read(pr mop.Procedure, fp object.Set, ids []object.ID, proc int) (mop.Record, error) {
	for _, x := range ids {
		st.locks[x].RLock()
	}
	tsStart := timestamp.New(len(st.ts)) // footprint entries only
	for _, x := range ids {
		tsStart.Set(x, st.ts.Get(x))
	}
	rec := mop.NewRecorder(st.values, pr)
	result := pr.Run(rec)
	for i := len(ids) - 1; i >= 0; i-- {
		st.locks[ids[i]].RUnlock()
	}
	if err := rec.Err(); err != nil {
		return mop.Record{}, err
	}
	return mop.Record{
		Proc:         proc,
		Update:       false,
		Seq:          -1,
		Ops:          rec.Ops(),
		TSStart:      tsStart,
		TSEnd:        tsStart.Clone(),
		Footprint:    fp,
		Result:       result,
		Responders:   []int{proc},
		IsConsistent: true,
	}, nil
}

// executeQuery implements A3 for the strong levels: register the query
// (arming a bounded query's response deadline) and broadcast a "query".
// The query completes once the level's responder count has answered
// (all processes for ALL/default, a majority for QUORUM), the session
// floor is covered and the read barrier settles (see advance).
func (p *Protocol) executeQuery(proc, lane int, pr mop.Procedure, level history.Level, done func(mop.Record, error)) error {
	st := p.states[proc]
	if p.toucher != nil {
		p.toucher.TouchQuery(proc, lane, pr.Footprint().IDs())
	}
	reqID := p.nextID.Add(1)
	need := p.need(level)
	qs := &queryState{
		pr:          pr,
		level:       level,
		retries:     p.cfg.QueryRetries,
		othX:        make([]object.Value, p.cfg.Reg.Len()),
		othts:       timestamp.New(p.cfg.Reg.Len()),
		waiting:     need,
		responded:   make([]bool, p.cfg.Procs),
		done:        done,
		respApplied: make([]int64, p.cfg.Shards),
		appliedBy:   make([][]int64, p.cfg.Procs),
	}
	inv := p.cfg.Clock()
	msg := queryMsg{ReqID: reqID}
	bytes := 16
	if p.cfg.RelevantOnly {
		msg.Objs = pr.Footprint().IDs()
		bytes += 8 * len(msg.Objs)
	}
	qs.inv, qs.msg, qs.bytes = inv, msg, bytes
	st.mu.Lock()
	if p.closed.Load() {
		st.mu.Unlock()
		return ErrClosed
	}
	if p.cfg.QueryTimeout > 0 {
		qs.timer = time.AfterFunc(p.cfg.QueryTimeout, func() { p.gatherTimeout(proc, qs) })
	}
	st.pendQry[reqID] = qs
	st.mu.Unlock()
	for q := 0; q < p.cfg.Procs; q++ {
		if err := p.qnet.Send(proc, q, "mlin.query", msg, bytes); err != nil {
			st.mu.Lock()
			mine := st.release(qs)
			st.mu.Unlock()
			if mine {
				done(mop.Record{}, fmt.Errorf("mlin: query: %w", err))
			}
			return nil
		}
	}
	return nil
}

// release deletes qs from the pending queries if it is still there,
// reporting whether the caller now owns its response. Caller holds st.mu.
func (st *procState) release(qs *queryState) bool {
	if st.pendQry[qs.msg.ReqID] != qs {
		return false
	}
	delete(st.pendQry, qs.msg.ReqID)
	if qs.timer != nil {
		qs.timer.Stop()
	}
	return true
}

// advance moves a strong query whose responses are in through the
// session-floor wait and the read barrier as far as the replica state
// allows. It reports whether it released the query, whose response the
// caller then owes once st.mu is free. Caller holds st.mu.
func (p *Protocol) advance(proc int, st *procState, qs *queryState) bool {
	if qs.waiting > 0 || (qs.barrier == nil && !coversFloor(qs.respApplied, st.applied, st.floor)) {
		return false
	}
	if qs.barrier != nil {
		return qs.barrierDone && st.release(qs)
	}
	p.enterBarrier(proc, st, qs)
	// Skip the wait when the responder count already caps certification
	// at ONE (a deep force-completion): the barrier cannot strengthen
	// the verdict, and probing an unreachable majority would only double
	// the force-complete latency. Level-less queries always wait — they
	// keep their pre-level identity and are checked at the store's
	// native condition however many responded.
	if qs.barrierDone || (len(qs.responders) < p.quorum() && qs.level != history.LevelDefault) {
		return st.release(qs)
	}
	// The first probe goes out at once, then one per interval.
	if qs.timer != nil {
		qs.timer.Stop()
	}
	qs.retries = p.cfg.QueryRetries
	qs.timer = time.AfterFunc(0, func() { p.probeTimeout(proc, qs) })
	return false
}

// enterBarrier runs once a gathered query covers the session floor.
func (p *Protocol) enterBarrier(proc int, st *procState, qs *queryState) {
	// Post-round bookkeeping, all under the replica lock (the session
	// floor is covered): fold the local replica into the merged copy, and
	// advance the floor to the prefix this query covers. The message loop
	// no longer merges into qs (waiting is 0), so the snapshot fields are
	// stable; only the barrier evidence keeps moving.
	covered := append([]int64(nil), qs.respApplied...)
	// Fold in the issuer's own replica: componentwise max over snapshots
	// of prefixes of one total order is the snapshot of the longest
	// prefix, so the merged copy stays consistent and is never older
	// than the local one — even when the self response was not among the
	// first `need` merged. In relevant-only mode only the footprint's
	// entries are meaningful, so only those are folded.
	var fold []object.ID
	if p.cfg.RelevantOnly {
		fold = qs.msg.Objs
	} else {
		fold = allObjects(p.cfg.Reg.Len())
	}
	for _, x := range fold {
		if st.ts.Get(x) > qs.othts.Get(x) {
			qs.othts.Set(x, st.ts.Get(x))
			qs.othX[x] = st.values[x]
		}
	}
	qs.responded[proc] = true
	maxInto(covered, st.applied)
	maxInto(st.floor, covered)
	// Enter the read barrier: the merged copy reflects prefix `covered`;
	// certifying any strong level requires a majority of replicas to
	// have applied it (see the package comment). The issuer's own
	// replica is the first piece of evidence; the phase-1 responses
	// already carried theirs.
	qs.responders = make([]int, 0, p.cfg.Procs)
	for q, ok := range qs.responded {
		if ok {
			qs.responders = append(qs.responders, q)
		}
	}
	qs.barrier = covered
	qs.noteApplied(proc, st.applied, p.cfg.Shards)
	qs.noteEvidence(p.quorum())
}

// respond answers a released strong query.
func (p *Protocol) respond(proc int, qs *queryState) {
	certified, consistent := certifyQuery(qs.level, len(qs.responders), p.cfg.Procs, qs.barrierDone)

	// A6: apply the query to the merged copy. No lock is needed: all
	// responses have been merged, the barrier only ever touched the
	// evidence fields, and the query state is no longer reachable from
	// the loops or its timer.
	tsStart := qs.othts.Clone()
	rec := mop.NewRecorder(qs.othX, qs.pr)
	result := qs.pr.Run(rec)
	if err := rec.Err(); err != nil {
		qs.done(mop.Record{}, err)
		return
	}
	// The merged copy is a consistent full snapshot in whole-copy mode on
	// one lane. In relevant-only mode only the footprint's entries are
	// meaningful, and on a sharded store (toucher set) the copy merges
	// each object's freshest version from lanes whose prefixes need not
	// be comparable, so it is no snapshot beyond the objects read.
	fp := object.FullSet(p.cfg.Reg.Len())
	if p.cfg.RelevantOnly || p.toucher != nil {
		fp = qs.pr.Footprint()
	}
	qs.done(mop.Record{
		Proc:         proc,
		Update:       false,
		Seq:          -1,
		Ops:          rec.Ops(),
		TSStart:      tsStart,
		TSEnd:        qs.othts,
		Footprint:    fp,
		Inv:          qs.inv,
		Result:       result,
		Level:        certified,
		Responders:   qs.responders,
		IsConsistent: consistent,
	}, nil)
}

// certifyQuery maps (requested level, responder count, read-barrier
// outcome) to the certified level recorded in the history and the
// IsConsistent verdict. A query force-completed below its requested
// responder count is certified at the strongest level its count
// actually supports, so the exact checkers never hold a degraded read
// to a guarantee it did not get. A strong certification additionally
// requires the read barrier: without majority stability of the
// observed prefix the snapshot may exhibit a new/old inversion against
// a later strong read, so the record honestly claims only the m-SC
// guarantee. The zero level keeps its pre-level identity — checked at
// the store's native condition regardless of completeness, which is
// exactly the bounded-query behavior histories recorded before levels
// had — with IsConsistent reporting whether the full Figure 6 contract
// (all responders, stable prefix) was met.
func certifyQuery(level history.Level, got, procs int, stable bool) (history.Level, bool) {
	quorum := procs/2 + 1
	switch level {
	case history.LevelQuorum:
		if got >= quorum && stable {
			return history.LevelQuorum, true
		}
		return history.LevelOne, false
	case history.LevelAll:
		switch {
		case got >= procs && stable:
			return history.LevelAll, true
		case got >= quorum && stable:
			return history.LevelQuorum, false
		default:
			return history.LevelOne, false
		}
	default:
		return history.LevelDefault, got >= procs && stable
	}
}

// coversFloor reports whether the componentwise max of the responses'
// advertised prefix and the local applied prefix dominates the session
// floor — the sharded form of max(respApplied, applied) >= floor.
func coversFloor(resp, applied, floor []int64) bool {
	for i := range floor {
		hi := applied[i]
		if resp[i] > hi {
			hi = resp[i]
		}
		if hi < floor[i] {
			return false
		}
	}
	return true
}

// allObjects lists every object ID (the whole-copy fold set).
func allObjects(n int) []object.ID {
	out := make([]object.ID, n)
	for i := range out {
		out[i] = object.ID(i)
	}
	return out
}

// gatherTimeout is a bounded query's response deadline (with no
// QueryTimeout the wait is unbounded: Figure 6's wait-for-all at need =
// Procs; the majority wait for QUORUM). Each deadline re-solicits
// the processes that have not answered, and after QueryRetries
// re-solicitations the query completes with the responses gathered so
// far — the issuer's replica is folded in afterwards regardless, so the
// merged copy is never empty and never older than the issuer's own.
func (p *Protocol) gatherTimeout(proc int, qs *queryState) {
	st := p.states[proc]
	var missing []int
	fin := false
	st.mu.Lock()
	if st.pendQry[qs.msg.ReqID] == qs && qs.waiting > 0 {
		if qs.retries <= 0 {
			// Complete with what arrived.
			qs.waiting = 0
			fin = p.advance(proc, st, qs)
		} else {
			qs.retries--
			qs.timer.Reset(p.cfg.QueryTimeout)
			for q := 0; q < p.cfg.Procs; q++ {
				if !qs.responded[q] {
					missing = append(missing, q)
				}
			}
		}
	}
	st.mu.Unlock()
	p.resend(proc, qs, missing, fin)
}

// probeTimeout drives the read barrier until a majority of replicas is
// known to have applied the query's covered prefix (see the package
// comment), re-probing the laggards with the same query message;
// replicas answer idempotently and every answer refreshes their applied
// evidence. When the barrier could not be confirmed within the retry
// budget the query responds certified at ONE, never holding an unstable
// snapshot to the m-linearizable contract. The wait terminates in the
// failure-free case because every update in the covered prefix is
// already in the broadcast order, which every live replica applies.
func (p *Protocol) probeTimeout(proc int, qs *queryState) {
	st := p.states[proc]
	var lagging []int
	fin := false
	st.mu.Lock()
	if st.pendQry[qs.msg.ReqID] == qs {
		if p.cfg.QueryTimeout > 0 && qs.retries < 0 {
			fin = st.release(qs)
		} else {
			qs.retries--
			qs.timer.Reset(p.probeInterval())
			for q := 0; q < p.cfg.Procs; q++ {
				if q != proc && !dominates(qs.appliedBy[q], qs.barrier) {
					lagging = append(lagging, q)
				}
			}
		}
	}
	st.mu.Unlock()
	p.resend(proc, qs, lagging, fin)
}

// resend sends qs's query message to the processes in to — the only
// send failure is shutdown, and Close completes the query — then, if
// fin, responds.
func (p *Protocol) resend(proc int, qs *queryState, to []int, fin bool) {
	for _, q := range to {
		_ = p.qnet.Send(proc, q, "mlin.query", qs.msg, qs.bytes)
	}
	if fin {
		p.respond(proc, qs)
	}
}

// probeInterval is the read barrier's re-probe period. Unbounded
// queries re-probe on a short interval forever (a replica
// may answer a probe before it has caught up to the barrier, so a
// single probe is not enough evidence to wait on); bounded queries
// re-probe on the query timeout and give up with the retry budget.
func (p *Protocol) probeInterval() time.Duration {
	interval := p.cfg.QueryTimeout
	if interval <= 0 {
		interval = barrierProbeInterval
		if d := 2 * p.cfg.MaxDelay; d > interval {
			interval = d
		}
	}
	return interval
}

// barrierProbeInterval is the floor on the read barrier's re-probe
// period for unbounded queries (no QueryTimeout); doubled MaxDelay
// wins when the simulated network is slower than this.
const barrierProbeInterval = 2 * time.Millisecond

// deliveryLoop implements A2 for one process.
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
				pu = st.pendUpd[payload.ReqID]
			}
			if d.Shards == nil && d.Seq < st.applied[0] {
				// Subsumed by an adopted recovery checkpoint; applying
				// again would double-count. (Sharded deliveries carry a
				// composite Seq that is not monotone per replica stream,
				// so the guard only applies to the single total order —
				// sharding excludes recovery at the config layer.) An
				// issuer still waiting locally gets an error outcome; a
				// peer still owes the issuer its write-phase ack — the
				// checkpoint covers the update's effects, so
				// acknowledging is sound.
				if pu != nil {
					delete(st.pendUpd, payload.ReqID)
				}
				st.mu.Unlock()
				if pu != nil {
					pu.done(mop.Record{}, errors.New("mlin: update subsumed by recovery checkpoint"))
				} else if payload.From != proc {
					p.sendAck(proc, payload)
				}
				continue
			}
			var rec mop.Record
			var err error
			if payload.Proc.MayWrite() {
				rec, err = st.applyLocked(payload.Proc, payload.From, d.Seq, pu != nil)
			} else if pu != nil {
				// An ordered m-SC read: answered here, at its issuer's
				// apply, so it reads a cut of every lane it rides.
				fp := payload.Proc.Footprint()
				rec, err = st.read(payload.Proc, fp, st.footprintIDs(fp), proc)
			}
			if d.Shards == nil {
				st.applied[0] = d.Seq + 1
			} else {
				// One schedule slot per involved lane: a cross-shard
				// update occupies exactly one position in each involved
				// shard's deterministic schedule.
				for _, s := range d.Shards {
					st.applied[s]++
				}
			}
			st.cond.Broadcast()
			var fin []*queryState
			for _, q := range st.pendQry {
				// The local apply is read-barrier evidence for any of
				// this process's queries still waiting on one, and may
				// end another's session-floor wait.
				if q.barrier != nil {
					q.noteApplied(proc, st.applied, p.cfg.Shards)
					q.noteEvidence(p.quorum())
				}
				if p.advance(proc, st, q) {
					fin = append(fin, q)
				}
			}
			var ready *pendingUpdate
			if pu != nil {
				// A2: the issuing process generates the response — but only
				// once a majority of replicas has applied the update (the
				// local apply is the first ack). An apply error completes
				// immediately: it is deterministic, waiting cannot mend it.
				if p.cfg.Sequential || err != nil || pu.wp.ack(proc, p.quorum()) {
					delete(st.pendUpd, payload.ReqID)
					ready = pu
				} else {
					pu.wp.rec, pu.wp.applied = rec, true
				}
			}
			st.mu.Unlock()
			if ready != nil {
				p.finishUpdate(ready, rec, err)
			} else if payload.From != proc {
				p.sendAck(proc, payload)
			}
			for _, q := range fin {
				p.respond(proc, q)
			}
		}
	}
}

// sendAck emits the write-phase acknowledgement for an update another
// process issued: this replica has applied it (or holds a checkpoint
// subsuming it). Rides the query network; under the lossy simulated
// stack the Reliable layer retransmits it like any other message.
func (p *Protocol) sendAck(proc int, payload updatePayload) {
	if p.cfg.Sequential {
		return
	}
	// Send failures only occur at shutdown.
	_ = p.qnet.Send(proc, payload.From, "mlin.ack", applyAck{ReqID: payload.ReqID, From: proc}, 16)
}

// finishUpdate completes a released update whose write quorum is in:
// the caller stamps Resp after this moment — a majority is known to hold
// the update, which is what the QUORUM read rule's intersection argument
// charges against.
func (p *Protocol) finishUpdate(pu *pendingUpdate, rec mop.Record, err error) {
	rec.Inv = pu.inv
	rec.Level = pu.level
	rec.IsConsistent = true
	pu.done(rec, err)
}

// messageLoop implements A4 (answer queries), A5 (merge responses) and
// the write-phase ack accounting.
func (p *Protocol) messageLoop(proc int) {
	defer p.wg.Done()
	st := p.states[proc]
	for {
		select {
		case <-p.stop:
			return
		case msg := <-p.qnet.Recv(proc):
			switch m := msg.Payload.(type) {
			case queryMsg:
				p.answerQuery(proc, msg.From, m)
			case applyAck:
				if m.From < 0 || m.From >= p.cfg.Procs {
					continue
				}
				var ready *pendingUpdate
				st.mu.Lock()
				if pu := st.pendUpd[m.ReqID]; pu != nil && pu.wp.ack(m.From, p.quorum()) && pu.wp.applied {
					delete(st.pendUpd, m.ReqID)
					ready = pu
				}
				st.mu.Unlock()
				if ready != nil {
					p.finishUpdate(ready, ready.wp.rec, nil)
				}
			case queryResp:
				fin := false
				st.mu.Lock()
				qs, ok := st.pendQry[m.ReqID]
				if ok && msg.From >= 0 && msg.From < p.cfg.Procs {
					// Applied evidence is tracked on every answer —
					// including duplicates and barrier re-probe answers
					// after the merge completed — because the read
					// barrier waits on exactly this refresh.
					qs.noteApplied(msg.From, m.Applied, p.cfg.Shards)
					qs.noteEvidence(p.quorum())
					if qs.waiting > 0 && !qs.responded[msg.From] {
						qs.responded[msg.From] = true
						for i, x := range m.Objs {
							if m.TS[i] > qs.othts.Get(x) {
								qs.othts.Set(x, m.TS[i])
								qs.othX[x] = m.Values[i]
							}
						}
						if len(m.Applied) == p.cfg.Shards {
							maxInto(qs.respApplied, m.Applied)
						}
						qs.waiting--
					}
					fin = p.advance(proc, st, qs)
				}
				st.mu.Unlock()
				if fin {
					p.respond(proc, qs)
				}
			}
		}
	}
}

// answerQuery implements A4: snapshot the local copy (whole or relevant
// objects only) and reply, advertising the applied prefix the snapshot
// reflects.
func (p *Protocol) answerQuery(proc, from int, m queryMsg) {
	st := p.states[proc]
	st.mu.Lock()
	var objs []object.ID
	if m.Objs == nil {
		objs = allObjects(p.cfg.Reg.Len())
	} else {
		objs = m.Objs
	}
	resp := queryResp{
		ReqID:   m.ReqID,
		Objs:    objs,
		Values:  make([]object.Value, len(objs)),
		TS:      make([]int64, len(objs)),
		Applied: append([]int64(nil), st.applied...),
	}
	for i, x := range objs {
		resp.Values[i] = st.values[x]
		resp.TS[i] = st.ts.Get(x)
	}
	st.mu.Unlock()
	bytes := 16 + 8*len(resp.Applied) + 24*len(objs) // id + applied vector + per-object (id, value, version)
	// Send failures only occur at shutdown; the query will be released
	// by p.stop.
	_ = p.qnet.Send(proc, from, "mlin.qresp", resp, bytes)
}

// applyLocked is action A2's body, under st.mu. Only the issuer builds a
// record; it declares the procedure's own footprint, the only timestamp
// entries any consumer reads.
func (st *procState) applyLocked(pr mop.Procedure, proc int, seq int64, issuer bool) (mop.Record, error) {
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

// QueryTraffic returns the query network's traffic counters (experiment
// E9 reads these), zero when Sequential.
func (p *Protocol) QueryTraffic() network.Stats {
	if p.cfg.Sequential {
		return network.Stats{ByKind: map[string]network.KindStats{}}
	}
	return p.qnet.Stats()
}

// BroadcastTraffic returns the broadcaster's (messages, bytes).
func (p *Protocol) BroadcastTraffic() (int64, int64) { return p.cfg.Broadcast.MessageCost() }

// Snapshot captures process proc's current checkpoint for state
// transfer (recovery.State).
func (p *Protocol) Snapshot(proc int) recovery.Checkpoint {
	st := p.states[proc]
	st.mu.Lock()
	defer st.mu.Unlock()
	return recovery.Checkpoint{
		Values:  append([]object.Value(nil), st.values...),
		TS:      append([]int64(nil), st.ts...),
		Applied: st.applied[0],
	}
}

// Adopt installs ck into process proc if it is strictly fresher than the
// local replica state (recovery.State).
func (p *Protocol) Adopt(proc int, ck recovery.Checkpoint) bool {
	st := p.states[proc]
	st.mu.Lock()
	// Checkpoints carry a scalar prefix of the single total order;
	// sharding excludes recovery (Config validation at the store layer),
	// so a sharded replica never adopts one.
	if len(st.applied) != 1 || ck.Applied <= st.applied[0] || len(ck.Values) != len(st.values) || len(ck.TS) != len(st.ts) {
		st.mu.Unlock()
		return false
	}
	for i := range st.locks { // against local reads
		st.locks[i].Lock()
	}
	copy(st.values, ck.Values)
	copy(st.ts, ck.TS)
	for i := len(st.locks) - 1; i >= 0; i-- {
		st.locks[i].Unlock()
	}
	st.applied[0] = ck.Applied
	st.cond.Broadcast()
	var fin []*queryState
	for _, q := range st.pendQry {
		// An adopted checkpoint is a prefix of the same order: it is
		// read-barrier evidence exactly like the applies it subsumes.
		if q.barrier != nil {
			q.noteApplied(proc, st.applied, p.cfg.Shards)
			q.noteEvidence(p.quorum())
		}
		if p.advance(proc, st, q) {
			fin = append(fin, q)
		}
	}
	st.mu.Unlock()
	for _, q := range fin {
		p.respond(proc, q)
	}
	return true
}

// LocalTS returns a copy of process proc's current myts (test
// instrumentation).
func (p *Protocol) LocalTS(proc int) timestamp.TS {
	st := p.states[proc]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ts.Clone()
}

// Close shuts the protocol down, including the broadcaster it owns and
// its query network. Every still-pending operation is completed with
// ErrClosed so no issuer waits forever, and every session-floor waiter
// is woken to observe the shutdown.
func (p *Protocol) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	p.cfg.Broadcast.Close()
	if p.qnet != nil {
		p.qnet.Close()
	}
	p.wg.Wait()
	for _, st := range p.states {
		st.mu.Lock()
		upd, qry := st.pendUpd, st.pendQry
		st.pendUpd, st.pendQry = map[int64]*pendingUpdate{}, map[int64]*queryState{}
		st.cond.Broadcast()
		st.mu.Unlock()
		for _, pu := range upd {
			pu.done(mop.Record{}, ErrClosed)
		}
		for _, qs := range qry {
			qs.done(mop.Record{}, ErrClosed)
		}
	}
}
