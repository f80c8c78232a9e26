// Package causal implements m-causal consistency — the weaker condition
// the paper's introduction attributes to Raynal et al's generalization of
// causal memory to multi-object transactions. It is a documented
// *extension beyond the paper's own protocols*, included to place the
// paper's conditions in the consistency hierarchy experiment (E12):
//
//	m-linearizability  ⊂  m-sequential consistency  ⊂  m-causal consistency
//
// Protocol: no global synchronization at all. Each process applies its
// own update m-operations immediately (responding locally!) and
// disseminates them with a vector-clock-stamped broadcast; receivers
// delay application until causally ready (all of the sender's earlier
// updates and everything the sender had seen are applied). Queries read
// the local replica. Concurrent updates may be applied in different
// orders at different replicas — executions are m-causally consistent
// but in general NOT m-sequentially consistent, and replicas need not
// converge.
//
// Because there is no per-object total version order, reads-from cannot
// be derived from version vectors (D5.1); writes are tagged with
// (writer process, per-writer sequence) instead, and records carry the
// tags directly.
package causal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/object"
)

// Config parameterizes the protocol.
type Config struct {
	// Procs is the number of processes.
	Procs int
	// Reg is the shared-object registry.
	Reg *object.Registry
	// Seed, MinDelay and MaxDelay parameterize the dissemination network.
	Seed               int64
	MinDelay, MaxDelay time.Duration
	// Faults optionally injects delivery faults; the reliable layer then
	// keeps dissemination exactly-once (duplicates would re-apply
	// updates).
	Faults *network.Faults
	// Clock returns nanoseconds since the run origin and must be strictly
	// increasing; nil uses a mop.Clock started at construction.
	Clock func() int64
}

// Protocol is a running instance.
type Protocol struct {
	cfg    Config
	net    network.Link
	states []*procState
	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

type procState struct {
	mu     sync.Mutex
	values []object.Value
	tags   []mop.WriteTag // writer tag per object
	vc     []int64        // vc[q] = #updates from q applied locally
	mySeq  int64          // own update counter
	// buffered holds updates not yet causally ready.
	buffered []updateMsg
}

type updateMsg struct {
	from int
	seq  int64   // sender's update sequence (1-based)
	deps []int64 // sender's vector clock BEFORE this update, per process
	proc mop.Procedure
}

// ErrClosed is returned by Execute after Close.
var ErrClosed = errors.New("causal: protocol closed")

// New starts the protocol: one dissemination loop per process.
func New(cfg Config) (*Protocol, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("causal: invalid proc count %d", cfg.Procs)
	}
	if cfg.Reg == nil {
		return nil, errors.New("causal: registry is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = mop.NewClock(time.Now()).Now
	}
	net, err := network.NewLink(network.Config{
		Procs:    cfg.Procs,
		Seed:     cfg.Seed,
		MinDelay: cfg.MinDelay,
		MaxDelay: cfg.MaxDelay,
		Faults:   cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	p := &Protocol{
		cfg:    cfg,
		net:    net,
		states: make([]*procState, cfg.Procs),
		stop:   make(chan struct{}),
	}
	for i := range p.states {
		st := &procState{
			values: make([]object.Value, cfg.Reg.Len()),
			tags:   make([]mop.WriteTag, cfg.Reg.Len()),
			vc:     make([]int64, cfg.Procs),
		}
		for x := range st.tags {
			st.tags[x] = mop.InitTag
		}
		p.states[i] = st
	}
	for i := 0; i < cfg.Procs; i++ {
		p.wg.Add(1)
		go p.deliveryLoop(i)
	}
	return p, nil
}

// Exec runs procedure pr as an m-operation of process proc. Updates
// apply locally and respond immediately; dissemination is asynchronous.
// The protocol has no replica-count knob, so only the zero consistency
// level is accepted. Callers must not invoke Exec concurrently for the
// same process.
func (p *Protocol) Exec(proc int, pr mop.Procedure, opts mop.ExecOptions) (mop.Record, error) {
	if opts.Level != history.LevelDefault {
		return mop.Record{}, fmt.Errorf("causal: consistency level %q requires an m-lin store", opts.Level)
	}
	if p.closed.Load() {
		return mop.Record{}, ErrClosed
	}
	if proc < 0 || proc >= p.cfg.Procs {
		return mop.Record{}, fmt.Errorf("causal: invalid process %d", proc)
	}
	st := p.states[proc]
	inv := p.cfg.Clock()

	st.mu.Lock()
	if !pr.MayWrite() {
		rec, err := p.applyLocked(st, pr, proc, mop.WriteTag{})
		st.mu.Unlock()
		if err != nil {
			return mop.Record{}, err
		}
		rec.Inv = inv
		rec.Resp = p.cfg.Clock()
		return rec, nil
	}

	// Update: stamp with the NEXT own sequence, apply locally, then
	// disseminate with the pre-update vector clock as dependencies.
	deps := make([]int64, len(st.vc))
	copy(deps, st.vc)
	tag := mop.WriteTag{Proc: proc, Seq: st.mySeq + 1}
	rec, err := p.applyLocked(st, pr, proc, tag)
	if err != nil {
		st.mu.Unlock()
		return mop.Record{}, err
	}
	st.mySeq++
	st.vc[proc]++
	st.mu.Unlock()

	msg := updateMsg{from: proc, seq: tag.Seq, deps: deps, proc: pr}
	for q := 0; q < p.cfg.Procs; q++ {
		if q == proc {
			continue
		}
		if err := p.net.Send(proc, q, "causal.update", msg, mop.PayloadBytes(pr)+8*p.cfg.Procs); err != nil {
			return mop.Record{}, fmt.Errorf("causal: disseminate: %w", err)
		}
	}
	rec.Inv = inv
	rec.Resp = p.cfg.Clock()
	return rec, nil
}

// applyLocked runs pr against st (locked). For updates, tag is the write
// tag to install; for queries it is ignored.
func (p *Protocol) applyLocked(st *procState, pr mop.Procedure, proc int, tag mop.WriteTag) (mop.Record, error) {
	// Updates run against the live replica but are rolled back on a
	// contract violation: an aborted update is never disseminated, so
	// leaving partial effects locally would silently diverge the
	// replicas.
	var backup []object.Value
	if pr.MayWrite() {
		backup = make([]object.Value, len(st.values))
		copy(backup, st.values)
	}
	rec := mop.NewRecorder(st.values, pr)
	result := pr.Run(rec)
	if err := rec.Err(); err != nil {
		if backup != nil {
			copy(st.values, backup)
		}
		return mop.Record{}, err
	}
	// st.tags is untouched by Run (only values change), so reading the
	// tags here still observes the pre-write state for external reads.
	sources := make(map[object.ID]mop.WriteTag)
	for _, op := range history.ExternalReads(rec.Ops()) {
		sources[op.Obj] = st.tags[op.Obj]
	}
	writeTags := make(map[object.ID]mop.WriteTag)
	for _, x := range rec.Written().IDs() {
		st.tags[x] = tag
		writeTags[x] = tag
	}
	return mop.Record{
		Proc:       proc,
		Update:     len(writeTags) > 0 || pr.MayWrite(),
		Seq:        -1,
		Ops:        rec.Ops(),
		Footprint:  pr.Footprint(),
		Result:     result,
		SourceTags: sources,
		WriteTags:  writeTags,
	}, nil
}

// deliveryLoop applies remote updates in causal order.
func (p *Protocol) deliveryLoop(proc int) {
	defer p.wg.Done()
	st := p.states[proc]
	for {
		select {
		case <-p.stop:
			return
		case raw := <-p.net.Recv(proc):
			msg, ok := raw.Payload.(updateMsg)
			if !ok {
				continue
			}
			st.mu.Lock()
			st.buffered = append(st.buffered, msg)
			p.drainLocked(st, proc)
			st.mu.Unlock()
		}
	}
}

// drainLocked applies every buffered update that is causally ready,
// repeating until a fixpoint.
func (p *Protocol) drainLocked(st *procState, proc int) {
	for progress := true; progress; {
		progress = false
		keep := st.buffered[:0]
		for _, msg := range st.buffered {
			if p.readyLocked(st, msg) {
				tag := mop.WriteTag{Proc: msg.from, Seq: msg.seq}
				// Remote application: the record is discarded (only the
				// issuer records its m-operations); a contract violation
				// was already surfaced at the issuer and the partial
				// effects are deterministic.
				_, _ = p.applyLocked(st, msg.proc, msg.from, tag)
				st.vc[msg.from]++
				progress = true
			} else {
				keep = append(keep, msg)
			}
		}
		st.buffered = keep
	}
}

// readyLocked implements the causal delivery condition: the sender's
// previous update is applied, and everything the sender had seen when it
// issued this update is applied here too.
func (p *Protocol) readyLocked(st *procState, msg updateMsg) bool {
	if st.vc[msg.from] != msg.seq-1 {
		return false
	}
	for q, d := range msg.deps {
		if q == msg.from {
			continue
		}
		if st.vc[q] < d {
			return false
		}
	}
	return true
}

// LocalVC returns a copy of process proc's vector clock (test
// instrumentation).
func (p *Protocol) LocalVC(proc int) []int64 {
	st := p.states[proc]
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int64, len(st.vc))
	copy(out, st.vc)
	return out
}

// Traffic returns the dissemination network's counters.
func (p *Protocol) Traffic() network.Stats { return p.net.Stats() }

// Close shuts the protocol down.
func (p *Protocol) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	p.net.Close()
	p.wg.Wait()
}
