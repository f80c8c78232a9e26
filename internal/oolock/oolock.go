// Package oolock implements m-linearizability under the OO-constraint of
// Section 4 — synchronization "only at each object level" — as an
// alternative to the Figure 6 broadcast protocol:
//
//   - every object has a home process (owner); the home holds the only
//     authoritative copy plus the object's version counter and an
//     exclusive FIFO lock;
//   - an m-operation locks its footprint in ascending object order
//     (global order ⇒ no deadlock), receiving each object's value and
//     version with the grant;
//   - with all locks held it runs locally, then releases each lock,
//     shipping written values back to the homes (which bump versions).
//
// This is conservative strict two-phase locking over a sharded store:
// every m-operation takes effect at a single instant while holding all
// its locks, between its invocation and response — hence the executions
// are m-linearizable. Conflicting m-operations are ordered by the
// per-object lock/version order, so the history is under the
// OO-constraint (not the WW-constraint: two updates on disjoint objects
// are never synchronized), and its verification exercises the OO branch
// of Theorem 7.
//
// Compared with Figure 6: queries pay lock round-trips but only to their
// footprint's homes (no n-process broadcast), updates need no atomic
// broadcast at all, and there is no full replication — the classic
// sharding-vs-replication trade-off.
package oolock

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
	"moc/internal/timestamp"
)

// Config parameterizes the protocol.
type Config struct {
	// Procs is the number of processes; object x is homed at x mod Procs.
	Procs int
	// Reg is the shared-object registry.
	Reg *object.Registry
	// Seed, MinDelay and MaxDelay parameterize the network.
	Seed               int64
	MinDelay, MaxDelay time.Duration
	// Faults optionally injects delivery faults; the reliable layer then
	// keeps lock grants and releases exactly-once.
	Faults *network.Faults
	// Clock returns nanoseconds since the run origin and must be strictly
	// increasing; nil uses a mop.Clock started at construction.
	Clock func() int64
}

// Protocol is a running instance.
type Protocol struct {
	cfg    Config
	net    network.Link
	homes  []*homeState // indexed by process
	client []*clientState
	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
	nextID atomic.Int64
}

// homeState is one process's authoritative objects.
type homeState struct {
	mu   sync.Mutex
	objs map[object.ID]*objState
}

type objState struct {
	value   object.Value
	version int64
	locked  bool
	holder  int64 // reqID of the current holder (valid when locked)
	queue   []waiter
}

type waiter struct {
	reqID int64
	from  int
}

// clientState tracks a process's in-flight lock acquisitions.
type clientState struct {
	mu      sync.Mutex
	pending map[int64]chan grantMsg
}

type lockReq struct {
	reqID int64
	x     object.ID
}

type grantMsg struct {
	reqID   int64
	x       object.ID
	value   object.Value
	version int64
}

type releaseMsg struct {
	reqID    int64
	x        object.ID
	wrote    bool
	newValue object.Value
}

// ErrClosed is returned by Execute after Close.
var ErrClosed = errors.New("oolock: protocol closed")

// New starts the protocol: one message loop per process.
func New(cfg Config) (*Protocol, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("oolock: invalid proc count %d", cfg.Procs)
	}
	if cfg.Reg == nil {
		return nil, errors.New("oolock: registry is required")
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
		homes:  make([]*homeState, cfg.Procs),
		client: make([]*clientState, cfg.Procs),
		stop:   make(chan struct{}),
	}
	for i := 0; i < cfg.Procs; i++ {
		p.homes[i] = &homeState{objs: make(map[object.ID]*objState)}
		p.client[i] = &clientState{pending: make(map[int64]chan grantMsg)}
	}
	for x := 0; x < cfg.Reg.Len(); x++ {
		home := p.homes[x%cfg.Procs]
		home.objs[object.ID(x)] = &objState{value: object.Initial}
	}
	for i := 0; i < cfg.Procs; i++ {
		p.wg.Add(1)
		go p.messageLoop(i)
	}
	return p, nil
}

// Home returns the process that owns object x.
func (p *Protocol) Home(x object.ID) int { return int(x) % p.cfg.Procs }

// Exec runs procedure pr as an m-operation of process proc: lock the
// footprint in ascending order, run, write back, unlock. The protocol
// shards objects across homes instead of replicating them, so there is
// no replica count to tune — only the zero consistency level is
// accepted. Callers must not invoke Exec concurrently for the same
// process.
func (p *Protocol) Exec(proc int, pr mop.Procedure, opts mop.ExecOptions) (mop.Record, error) {
	if opts.Level != history.LevelDefault {
		return mop.Record{}, fmt.Errorf("oolock: consistency level %q requires an m-lin store", opts.Level)
	}
	if p.closed.Load() {
		return mop.Record{}, ErrClosed
	}
	if proc < 0 || proc >= p.cfg.Procs {
		return mop.Record{}, fmt.Errorf("oolock: invalid process %d", proc)
	}
	fp := pr.Footprint()
	objs := fp.IDs() // ascending: the global lock order
	for _, x := range objs {
		if int(x) >= p.cfg.Reg.Len() {
			return mop.Record{}, fmt.Errorf("oolock: unknown object %d in footprint", int(x))
		}
	}

	reqID := p.nextID.Add(1)
	grants := make(chan grantMsg, 1)
	cl := p.client[proc]
	cl.mu.Lock()
	cl.pending[reqID] = grants
	cl.mu.Unlock()
	defer func() {
		cl.mu.Lock()
		delete(cl.pending, reqID)
		cl.mu.Unlock()
	}()

	inv := p.cfg.Clock()

	// Growing phase: acquire in ascending object order.
	values := make([]object.Value, p.cfg.Reg.Len())
	tsStart := timestamp.New(p.cfg.Reg.Len())
	var requested []object.ID
	for _, x := range objs {
		requested = append(requested, x)
		if err := p.net.Send(proc, p.Home(x), "oolock.lock", lockReq{reqID: reqID, x: x}, 16); err != nil {
			p.releaseAll(proc, reqID, nil, requested, nil)
			return mop.Record{}, fmt.Errorf("oolock: lock %d: %w", int(x), err)
		}
		select {
		case g := <-grants:
			if g.x != x {
				p.releaseAll(proc, reqID, nil, requested, nil)
				return mop.Record{}, fmt.Errorf("oolock: grant for %d while waiting for %d", int(g.x), int(x))
			}
			values[x] = g.value
			tsStart.Set(x, g.version)
		case <-p.stop:
			return mop.Record{}, ErrClosed
		}
	}

	// Execute locally with all locks held.
	rec := mop.NewRecorder(values, pr)
	result := pr.Run(rec)
	written := rec.Written()
	contractErr := rec.Err()

	// Shrinking phase: write back and unlock. On a contract violation
	// the m-operation aborts: locks are released without any write, so
	// the shared state is untouched (all-or-nothing).
	tsEnd := tsStart.Clone()
	var releaseWrites object.Set
	if contractErr == nil {
		releaseWrites = written
		for _, x := range written.IDs() {
			tsEnd.Bump(x)
		}
	}
	p.releaseAll(proc, reqID, values, objs, &releaseWrites)
	if contractErr != nil {
		return mop.Record{}, contractErr
	}

	return mop.Record{
		Proc:      proc,
		Update:    !written.Empty(),
		Seq:       -1, // no global order: synchronization is per object
		Ops:       rec.Ops(),
		TSStart:   tsStart,
		TSEnd:     tsEnd,
		Footprint: fp,
		Inv:       inv,
		Resp:      p.cfg.Clock(),
		Result:    result,
	}, nil
}

// releaseAll sends release messages for every object in objs. writes is
// the set of objects whose new values must be installed (nil = none).
func (p *Protocol) releaseAll(proc int, reqID int64, values []object.Value, objs []object.ID, writes *object.Set) {
	for _, x := range objs {
		msg := releaseMsg{reqID: reqID, x: x}
		if writes != nil && writes.Contains(x) {
			msg.wrote = true
			msg.newValue = values[x]
		}
		// Failures only happen at shutdown, when the homes are gone too.
		_ = p.net.Send(proc, p.Home(x), "oolock.release", msg, 24)
	}
}

// messageLoop serves process i's roles: home (lock/release handling) and
// client (grant routing).
func (p *Protocol) messageLoop(i int) {
	defer p.wg.Done()
	home := p.homes[i]
	cl := p.client[i]
	for {
		select {
		case <-p.stop:
			return
		case msg := <-p.net.Recv(i):
			switch m := msg.Payload.(type) {
			case lockReq:
				home.mu.Lock()
				st, ok := home.objs[m.x]
				if !ok {
					home.mu.Unlock()
					continue // not this home's object; ignore
				}
				if st.locked {
					st.queue = append(st.queue, waiter{reqID: m.reqID, from: msg.From})
					home.mu.Unlock()
					continue
				}
				st.locked = true
				st.holder = m.reqID
				g := grantMsg{reqID: m.reqID, x: m.x, value: st.value, version: st.version}
				home.mu.Unlock()
				if err := p.net.Send(i, msg.From, "oolock.grant", g, 32); err != nil {
					return
				}
			case releaseMsg:
				home.mu.Lock()
				st, ok := home.objs[m.x]
				if !ok {
					home.mu.Unlock()
					continue
				}
				if !st.locked || st.holder != m.reqID {
					// Not the holder: an aborting m-operation cancelling
					// a still-queued request. Remove it from the queue
					// so it is never granted to a caller that has gone.
					for qi, w := range st.queue {
						if w.reqID == m.reqID {
							st.queue = append(st.queue[:qi], st.queue[qi+1:]...)
							break
						}
					}
					home.mu.Unlock()
					continue
				}
				if m.wrote {
					st.value = m.newValue
					st.version++
				}
				var next *waiter
				if len(st.queue) > 0 {
					w := st.queue[0]
					st.queue = st.queue[1:]
					next = &w
					st.holder = w.reqID // stays locked for the next holder
				} else {
					st.locked = false
					st.holder = 0
				}
				var g grantMsg
				if next != nil {
					g = grantMsg{reqID: next.reqID, x: m.x, value: st.value, version: st.version}
				}
				home.mu.Unlock()
				if next != nil {
					if err := p.net.Send(i, next.from, "oolock.grant", g, 32); err != nil {
						return
					}
				}
			case grantMsg:
				cl.mu.Lock()
				ch, ok := cl.pending[m.reqID]
				cl.mu.Unlock()
				if ok {
					select {
					case ch <- m:
					case <-p.stop:
						return
					}
				}
			}
		}
	}
}

// Traffic returns the protocol's network counters.
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
