// Package core is the paper's primary contribution as a usable library:
// a replicated multi-object shared memory whose operations are
// m-operations — atomic procedures spanning several objects — with a
// pluggable consistency condition (m-sequential consistency or
// m-linearizability, Section 2.3 of Mittal & Garg 1998), implemented by
// the Section 5 protocols over a simulated asynchronous network.
//
// A Store runs n processes, each holding a full replica — the Figure 4/6
// replica (internal/mlin) over an atomic broadcaster. The locking and
// causal protocols (internal/oolock, internal/causal) run without a
// Store; BuildHistory and VerifyOO check their records. Every executed
// m-operation is recorded; History() reconstructs the formal execution
// history (with the exact reads-from relation, derived from the
// protocols' version-vector timestamps per D5.1/D5.6), and Verify()
// re-checks the appropriate consistency condition with the polynomial
// Theorem 7 procedure.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/abcast"
	"moc/internal/checker"
	"moc/internal/history"
	"moc/internal/mlin"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/object"
	"moc/internal/recovery"
	"moc/internal/shard"
)

// Consistency selects the condition the store implements.
type Consistency int

// Consistency conditions (Section 2.3).
const (
	// MSequential: queries are local, updates atomically broadcast
	// (Figure 4).
	MSequential Consistency = iota + 1
	// MLinearizable: queries additionally collect the freshest versions
	// from all processes (Figure 6).
	MLinearizable
)

// String names the consistency condition.
func (c Consistency) String() string {
	switch c {
	case MSequential:
		return "m-sequential"
	case MLinearizable:
		return "m-linearizable"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// BroadcastKind selects the atomic broadcast implementation.
type BroadcastKind int

// Broadcast implementations.
const (
	// SequencerBroadcast uses a fixed sequencer (default).
	SequencerBroadcast BroadcastKind = iota + 1
	// LamportBroadcast uses Lamport-clock all-ack total ordering.
	LamportBroadcast
	// TokenBroadcast uses a circulating token to assign sequence numbers.
	TokenBroadcast
)

// Config parameterizes New.
type Config struct {
	// Procs is the number of processes (replicas). Required.
	Procs int
	// Objects names the shared objects. Required.
	Objects []string
	// Consistency defaults to MLinearizable.
	Consistency Consistency
	// Broadcast defaults to SequencerBroadcast.
	Broadcast BroadcastKind
	// Seed drives all network randomness.
	Seed int64
	// MinDelay and MaxDelay bound per-message network delays.
	MinDelay, MaxDelay time.Duration
	// Faults optionally injects delivery faults (drops, duplicates, delay
	// spikes, partitions) into every network the store runs on; the
	// reliable transport layer then restores exactly-once delivery, so
	// the consistency guarantees hold over lossy links too. NetStats
	// reports the fault and retransmission counters.
	Faults *network.Faults
	// Links optionally substitutes a real transport for the simulated
	// network: every logical channel the protocols open ("abcast",
	// "mlin.query", "recovery") is built through the factory instead of
	// network.NewLink. This is how cmd/mocd runs the store over TCP
	// (internal/transport). Nil keeps the simulated network. A factory
	// cannot be combined with Faults (fault injection is a property of
	// the simulated network).
	Links network.Factory
	// Epoch, when non-zero, anchors the store's clock: Inv/Resp record
	// timestamps are nanoseconds since Epoch instead of since store
	// construction. Daemons of one cluster share an epoch so their
	// records are real-time comparable when traces are merged.
	Epoch time.Time
	// RelevantOnly enables the Section 5.2 query-payload optimization
	// (m-linearizable stores only).
	RelevantOnly bool
	// FD configures heartbeat failure detection and coordinator failover
	// in the atomic-broadcast layer; like a crash schedule in Faults it
	// requires SequencerBroadcast. When nil and the fault
	// schedule includes process crashes, a default detector is enabled
	// automatically so a crashed coordinator cannot stall the store.
	FD *abcast.FDConfig
	// QueryTimeout bounds m-linearizable query round-trips: after it
	// expires the query re-solicits missing responders up to QueryRetries
	// times, then completes with the responses of the live processes.
	// Defaults (crash schedules only) to a bound comfortably above the
	// worst-case delivery delay; zero without crashes keeps the unbounded
	// Figure 6 wait.
	QueryTimeout time.Duration
	// QueryRetries is the number of re-solicitations for a bounded query
	// (default 3 when QueryTimeout is defaulted).
	QueryRetries int
	// DisableRecording turns off history capture (benchmarks that only
	// measure protocol cost).
	DisableRecording bool
	// BatchSize and BatchWindow enable group commit in the broadcast
	// layer: updates submitted while an earlier flush is still being
	// ordered (at most BatchSize of them) travel as a single BatchMsg
	// frame through the atomic broadcaster and are applied as a
	// contiguous run of the delivery order. The batcher clocks itself:
	// it flushes when the pipeline is idle and when its own flush is
	// delivered back, so BatchWindow is not a fill wait but the longest
	// an update waits when that delivery is lost (a crashed issuer).
	// Zero values keep today's one-frame-per-update behavior. In a
	// multi-daemon deployment every daemon must use the same values.
	BatchSize   int
	BatchWindow time.Duration
	// MaxInflight is how many update m-operations one Process may have
	// outstanding at once (pipelined issuance). Each concurrent slot is
	// recorded as its own issuing lane — a virtual process id — so
	// histories stay well-formed. Default 1 (today's one-at-a-time
	// behavior).
	MaxInflight int
	// Recovery forces the checkpoint-transfer service on even without a
	// simulated crash schedule, so a store running over real links
	// (Links) can rejoin a cluster after a process-level kill via
	// Store.Recover. Requires the unbatched fixed-sequencer broadcast:
	// rejoin fast-forwards the sequencer's delivery sequence to the
	// adopted checkpoint's applied count, which is only meaningful when
	// one delivery is one update and sequence numbers are assigned by
	// the dedicated sequencer endpoint. (With a simulated crash
	// schedule the service is created automatically; this knob is for
	// deployments whose crashes are real.)
	Recovery bool
	// RecordSink, when non-nil, receives every completed m-operation
	// record as it is captured (after lane renumbering), concurrently
	// with execution. Daemons use it to append records to a crash-safe
	// trace file so a SIGKILL loses at most the operations still in
	// flight. The sink is called under the store's record mutex, one
	// record at a time in response order (strictly increasing Resp). It
	// runs on the completing operation's path — one of the replica's
	// delivery or message loops or timers — so it should return quickly,
	// and it must not call back into the store.
	RecordSink func(mop.Record)
	// Shards partitions the object space into this many shards (object
	// id mod Shards), each with its own independent atomic-broadcast
	// lane; 0 or 1 keeps the single total order. Operations touching one
	// shard ride that shard's lane untouched; operations spanning
	// several are merged into every involved shard's schedule by a
	// ticket/commit round (internal/shard), so per-shard schedules stay
	// deterministic across replicas and disjoint shards never wait on
	// each other. Incompatible with Recovery, scheduled crash faults, and
	// an explicit FD config (per-lane failover is not coordinated).
	// Requires Shards <= len(Objects).
	Shards int
}

// Level is the per-request consistency level of the unified Exec entry
// point (re-exported from internal/history, where the checkers consume
// it). The zero level requests the store's default: the full guarantee
// of its configured consistency condition.
type Level = history.Level

// Per-request consistency levels.
const (
	// One reads only the issuing process's local replica (m-SC
	// guarantee; the Figure 4 query rule).
	One = history.LevelOne
	// Quorum completes a query once a majority ⌈(n+1)/2⌉ of replicas
	// answered (m-linearizable stores only).
	Quorum = history.LevelQuorum
	// All waits for every replica — the Figure 6 rule and the default
	// for m-linearizable stores.
	All = history.LevelAll
)

// ExecOptions carries the per-request knobs of Exec (re-exported from
// internal/mop, where the protocols consume it).
type ExecOptions = mop.ExecOptions

// Result is what an executed m-operation returns: the procedure's value
// plus the consistency metadata of the execution — which level was
// actually delivered, which replicas answered, and whether the
// requested level's contract was met.
type Result struct {
	// Value is the procedure's return value.
	Value any
	// Level is the certified consistency level: the strongest level the
	// responder count actually supports. Equal to the requested level
	// unless the query was force-completed short of it.
	Level Level
	// Responders lists, ascending, the processes whose replica state the
	// operation observed. Nil for updates.
	Responders []int
	// IsConsistent reports whether the requested level's contract was
	// met (always true for ONE and for updates).
	IsConsistent bool
}

// Store is a replicated multi-object shared memory.
type Store struct {
	cfg     Config
	reg     *object.Registry
	replica *mlin.Protocol // the Figure 4/6 replica; owns bcast
	bcast   abcast.Broadcaster
	smap    *shard.Map // non-nil iff Config.Shards > 1
	procs   []*Process
	stopCh  chan struct{} // closed by Close; releases lane waiters

	// recov serves checkpointed state transfer for crash recovery; the
	// watcher goroutines trigger a Recover for every scheduled restart.
	recov     *recovery.Service
	watchStop chan struct{}
	watchWg   sync.WaitGroup

	clock *mop.Clock

	// mu is the record mutex: Resp stamping, the records append and the
	// RecordSink call happen under it, so records are captured in
	// response order. inFlight counts issued, not yet recorded
	// m-operations; it is raised without mu but lowered under it after
	// the append, so a reader that sees zero under mu holds the record of
	// every operation issued so far — never a query without the update
	// it read from.
	mu       sync.Mutex
	records  []mop.Record
	inFlight atomic.Int64

	closed atomic.Bool
}

// Process is a handle to one process of the store. By default each
// process executes one m-operation at a time (Section 2.1); concurrent
// Exec calls on the same Process are serialized. With
// Config.MaxInflight > 1, up to that many update m-operations may be
// outstanding concurrently via ExecAsync (or concurrent Exec calls):
// each outstanding slot is an issuing lane, and an operation completing
// on lane l > 0 is recorded under the virtual process id id + l*Procs,
// so every lane remains a sequential thread of control and recorded
// histories stay well-formed.
type Process struct {
	store *Store
	id    int
	// lanes holds one token per issuing lane; acquiring a token admits
	// one in-flight operation. Capacity is Config.MaxInflight (min 1).
	lanes chan int
}

// Future is the pending completion of an ExecAsync call.
type Future struct {
	done   chan struct{}
	result Result
	err    error
}

// Wait blocks until the operation completes and returns its result with
// the execution's consistency metadata.
func (f *Future) Wait() (Result, error) {
	<-f.done
	return f.result, f.err
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("core: store closed")

// New builds and starts a store.
func New(cfg Config) (*Store, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("core: invalid proc count %d", cfg.Procs)
	}
	reg, err := object.NewRegistry(cfg.Objects)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Consistency == 0 {
		cfg.Consistency = MLinearizable
	}
	if cfg.Consistency != MSequential && cfg.Consistency != MLinearizable {
		return nil, fmt.Errorf("core: unknown consistency %d", int(cfg.Consistency))
	}
	if cfg.Broadcast == 0 {
		cfg.Broadcast = SequencerBroadcast
	}
	if cfg.Links != nil && cfg.Faults != nil {
		return nil, errors.New("core: Links cannot be combined with Faults (fault injection is simulated-network only)")
	}
	if cfg.BatchSize < 0 || cfg.BatchWindow < 0 || cfg.MaxInflight < 0 {
		return nil, errors.New("core: BatchSize, BatchWindow and MaxInflight must be non-negative")
	}
	batching := cfg.BatchSize > 1 || cfg.BatchWindow > 0
	hasCrashes := cfg.Faults != nil && len(cfg.Faults.Crashes) > 0
	if (cfg.Recovery || cfg.FD != nil || hasCrashes) && cfg.Broadcast != SequencerBroadcast {
		return nil, errors.New("core: Recovery, FD and scheduled crash faults require SequencerBroadcast (only the sequencer fails over; Lamport and token assume no crashes)")
	}
	if cfg.Recovery {
		if batching {
			return nil, errors.New("core: Recovery cannot be combined with batching (the checkpoint applied count is in per-update delivery units)")
		}
		if cfg.FD != nil {
			return nil, errors.New("core: Recovery drives rejoin explicitly and cannot be combined with FD failover")
		}
	}

	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: invalid shard count %d", cfg.Shards)
	}
	if cfg.Shards > 1 {
		if cfg.Recovery {
			return nil, errors.New("core: Shards cannot be combined with Recovery (checkpoints carry a single total-order prefix)")
		}
		if hasCrashes {
			return nil, errors.New("core: Shards cannot be combined with scheduled crash faults (per-lane failover is not coordinated; kill real daemons instead)")
		}
		if cfg.FD != nil {
			return nil, errors.New("core: Shards cannot be combined with FD (per-lane failover is not coordinated)")
		}
	}

	// With scheduled crashes, default the failure detector (so a crashed
	// coordinator cannot stall the broadcast layer) and bound query
	// round-trips (so a crashed responder cannot stall a query). The
	// timing constants follow failover.go's assumption: detection timeout
	// well above the worst-case delivery delay plus retransmission.
	if hasCrashes {
		spike := cfg.Faults.DelaySpike
		if cfg.FD == nil {
			interval := 2 * time.Millisecond
			if d := 2 * cfg.MaxDelay; d > interval {
				interval = d
			}
			cfg.FD = &abcast.FDConfig{Interval: interval, Timeout: 10*interval + 8*(cfg.MaxDelay+spike)}
		}
		if cfg.QueryTimeout <= 0 {
			cfg.QueryTimeout = 10*time.Millisecond + 8*(cfg.MaxDelay+spike)
			if cfg.QueryRetries == 0 {
				cfg.QueryRetries = 3
			}
		}
	}

	origin := time.Now()
	if !cfg.Epoch.IsZero() {
		origin = cfg.Epoch
	}
	s := &Store{cfg: cfg, reg: reg, clock: mop.NewClock(origin), stopCh: make(chan struct{})}

	// makeLane builds one atomic-broadcast instance on the given channel
	// with the given seed. endpoint >= 0 places a sequencer lane's
	// coordinator endpoint there (sharded lanes spread coordinators over
	// the daemons: endpoint e is owned by daemon e mod len(addrs)); an
	// unsharded sequencer keeps the default endpoint and may combine
	// with FD failover.
	makeLane := func(channel string, seed int64, endpoint int) (abcast.Broadcaster, error) {
		var lane abcast.Broadcaster
		var err error
		switch cfg.Broadcast {
		case SequencerBroadcast:
			scfg := abcast.SequencerConfig{
				Procs: cfg.Procs, Seed: seed, MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay,
				Faults: cfg.Faults, FD: cfg.FD, Links: cfg.Links, Channel: channel,
			}
			if endpoint >= 0 {
				scfg.Endpoint = endpoint
			}
			lane, err = abcast.NewSequencer(scfg)
		case LamportBroadcast:
			lane, err = abcast.NewLamport(abcast.LamportConfig{
				Procs: cfg.Procs, Seed: seed, MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay,
				Faults: cfg.Faults, Links: cfg.Links, Channel: channel,
			})
		case TokenBroadcast:
			lane, err = abcast.NewToken(abcast.TokenConfig{
				Procs: cfg.Procs, Seed: seed, MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay,
				Faults: cfg.Faults, Links: cfg.Links, Channel: channel,
			})
		default:
			return nil, fmt.Errorf("core: unknown broadcast kind %d", int(cfg.Broadcast))
		}
		if err != nil {
			return nil, err
		}
		if batching {
			// Group commit: coalesce updates submitted during one
			// broadcast round (or until BatchSize) into a single BatchMsg
			// broadcast frame. The Batcher is itself a conforming
			// Broadcaster, so the layers above are untouched.
			lane = abcast.NewBatcher(lane, abcast.BatchConfig{
				Window: cfg.BatchWindow, Size: cfg.BatchSize,
			})
		}
		return lane, nil
	}

	var bcast abcast.Broadcaster
	if cfg.Shards > 1 {
		// One independent broadcast lane per shard, composed by the
		// ticket/commit merge group. Sequencer lanes spread their
		// coordinator endpoints (Procs+shard) so killing one daemon
		// stalls only the lanes it coordinates.
		smap, merr := shard.NewMap(reg.Len(), cfg.Shards)
		if merr != nil {
			return nil, fmt.Errorf("core: %w", merr)
		}
		lanes := make([]abcast.Broadcaster, cfg.Shards)
		for i := range lanes {
			lanes[i], err = makeLane(fmt.Sprintf("abcast.s%d", i), cfg.Seed+int64(1000*(i+1)), cfg.Procs+i)
			if err != nil {
				for _, l := range lanes[:i] {
					l.Close()
				}
				return nil, err
			}
		}
		bcast, err = shard.NewGroup(shard.GroupConfig{Procs: cfg.Procs, Map: smap, Lanes: lanes})
		if err != nil {
			for _, l := range lanes {
				l.Close()
			}
			return nil, err
		}
		s.smap = smap
	} else {
		bcast, err = makeLane("", cfg.Seed, -1)
		if err != nil {
			return nil, err
		}
	}

	p, err := mlin.New(mlin.Config{
		Procs: cfg.Procs, Reg: reg, Broadcast: bcast, Sequential: cfg.Consistency == MSequential,
		Seed: cfg.Seed + 1, MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay,
		Faults: cfg.Faults, Links: cfg.Links,
		RelevantOnly: cfg.RelevantOnly, Clock: s.clock.Now,
		QueryTimeout: cfg.QueryTimeout, QueryRetries: cfg.QueryRetries,
		Shards: cfg.Shards,
	})
	if err != nil {
		bcast.Close()
		return nil, err
	}
	s.replica, s.bcast = p, bcast
	// One lane token per permitted in-flight operation.
	inflight := max(cfg.MaxInflight, 1)
	s.procs = make([]*Process, cfg.Procs)
	for i := range s.procs {
		s.procs[i] = &Process{store: s, id: i, lanes: make(chan int, inflight)}
		for l := 0; l < inflight; l++ {
			s.procs[i].lanes <- l
		}
	}

	// Checkpointed recovery: when crashes with restarts are scheduled —
	// or Config.Recovery forces the service on for deployments whose
	// crashes are real (kill -9 of a daemon) — run a state-transfer
	// service and, for scheduled restarts, trigger a Recover under the
	// process lanes so no operation runs at the rejoining process until
	// its state is fresh. Real deployments call Store.Recover instead.
	if hasCrashes || cfg.Recovery {
		s.recov, err = recovery.New(recovery.Config{
			Procs: cfg.Procs, State: p,
			Seed: cfg.Seed + 2, MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay,
			Faults: cfg.Faults, Links: cfg.Links,
		})
		if err != nil {
			p.Close()
			return nil, err
		}
		if hasCrashes {
			s.watchStop = make(chan struct{})
			for _, cr := range cfg.Faults.Crashes {
				if cr.Restart <= 0 {
					continue
				}
				s.watchWg.Add(1)
				go s.watchRestart(cr.Proc, cr.Restart)
			}
		}
	}
	return s, nil
}

// watchRestart sleeps until just after the scheduled restart instant and
// runs one checkpointed recovery for the rejoining process. Every
// issuing lane is held across the transfer — the process is quiesced —
// so the first post-restart operation observes the recovered state.
func (s *Store) watchRestart(proc int, at time.Duration) {
	defer s.watchWg.Done()
	timer := time.NewTimer(at - time.Duration(s.clock.Now()))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-s.watchStop:
		return
	}
	// The transfer network's fault clock starts at its creation, which
	// trails the store clock's origin by the store's construction time,
	// so the nominal restart instant can land marginally inside the
	// network's crash window — where every transfer request is silently
	// dropped. Poll until the network itself reports the process up.
	for !s.recov.Up(proc) {
		select {
		case <-time.After(500 * time.Microsecond):
		case <-s.watchStop:
			return
		}
	}
	p := s.procs[proc]
	held := make([]int, 0, cap(p.lanes))
	defer func() {
		for _, l := range held {
			p.lanes <- l
		}
	}()
	for len(held) < cap(p.lanes) {
		select {
		case l := <-p.lanes:
			held = append(held, l)
		case <-s.watchStop:
			return
		}
	}
	// Generous bound: Recover returns as soon as all live peers answer.
	_, _, _ = s.recov.Recover(proc, 2*time.Second)
}

// Recover runs one checkpoint transfer for process proc against its
// live peers: the deployment rejoin path, called by a daemon that was
// killed and restarted (Config.Recovery). Every issuing lane is held
// across the transfer so no operation observes half-recovered state.
// When a checkpoint is adopted, the broadcast layer's delivery stream
// for proc is fast-forwarded to the checkpoint's applied count — the
// orders below it were applied by the checkpoint's donor and, over a
// real transport, will never be re-sent to this process. Reports
// whether a checkpoint was adopted (false with nil error means the
// local state was already at least as fresh — e.g. a cold cluster
// where nothing has been written yet).
func (s *Store) Recover(proc int, timeout time.Duration) (bool, error) {
	if s.recov == nil {
		return false, errors.New("core: recovery service not enabled (set Config.Recovery)")
	}
	if proc < 0 || proc >= len(s.procs) {
		return false, fmt.Errorf("core: invalid process %d", proc)
	}
	p := s.procs[proc]
	held := make([]int, 0, cap(p.lanes))
	defer func() {
		for _, l := range held {
			p.lanes <- l
		}
	}()
	for len(held) < cap(p.lanes) {
		select {
		case l := <-p.lanes:
			held = append(held, l)
		case <-s.stopCh:
			return false, ErrClosed
		}
	}
	adopted, applied, err := s.recov.Recover(proc, timeout)
	if err != nil {
		return false, err
	}
	if adopted {
		if r, ok := s.bcast.(abcast.Resumer); ok {
			r.Resume(proc, applied)
		}
	}
	return adopted, nil
}

// Drain quiesces the store for a graceful shutdown: it acquires every
// issuing lane of every process, so it returns only once all in-flight
// m-operations have completed (and their records have reached the
// RecordSink). New operations block on the empty lanes and are failed
// by the subsequent Close. Drain is terminal — the lanes are never
// released, so the only sensible successor is Close.
func (s *Store) Drain(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for _, p := range s.procs {
		for i := 0; i < cap(p.lanes); i++ {
			select {
			case <-p.lanes:
			case <-deadline.C:
				return fmt.Errorf("core: drain timed out after %v with operations still in flight", timeout)
			case <-s.stopCh:
				return ErrClosed
			}
		}
	}
	return nil
}

// Registry returns the store's object registry.
func (s *Store) Registry() *object.Registry { return s.reg }

// Consistency returns the configured consistency condition.
func (s *Store) Consistency() Consistency { return s.cfg.Consistency }

// Object resolves an object name to its ID.
func (s *Store) Object(name string) (object.ID, error) {
	id, ok := s.reg.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("core: unknown object %q", name)
	}
	return id, nil
}

// Process returns the handle for process i.
func (s *Store) Process(i int) (*Process, error) {
	if i < 0 || i >= len(s.procs) {
		return nil, fmt.Errorf("core: invalid process %d", i)
	}
	return s.procs[i], nil
}

// Procs returns the number of processes.
func (s *Store) Procs() int { return s.cfg.Procs }

// ShardMap returns the store's shard map, nil when the object space is
// unsharded (Config.Shards <= 1).
func (s *Store) ShardMap() *shard.Map { return s.smap }

// ShardSpec returns the canonical shard-map spec string recorded in
// trace headers ("" when unsharded); merged traces must agree on it.
func (s *Store) ShardSpec() string {
	if s.smap == nil {
		return ""
	}
	return s.smap.Spec()
}

// Close shuts down the protocol and all its goroutines.
func (s *Store) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stopCh) // release lane waiters
	if s.watchStop != nil {
		close(s.watchStop)
	}
	if s.recov != nil {
		s.recov.Close() // unblocks any in-flight Recover
	}
	// Close the replica before waiting for the restart watchers: a
	// watcher blocks on the process lanes, which an in-flight operation
	// holds until the replica's shutdown errors it out — waiting first
	// would deadlock a Close issued while operations are still running.
	s.replica.Close()
	s.watchWg.Wait()
}

// Recoveries reports how many checkpoints restarted processes have
// adopted (zero without crash injection).
func (s *Store) Recoveries() int64 {
	if s.recov == nil {
		return 0
	}
	return s.recov.Adopted()
}

// RecoveryTraffic returns the state-transfer network's counters
// (zero-valued without crash injection).
func (s *Store) RecoveryTraffic() network.Stats {
	if s.recov == nil {
		return network.Stats{ByKind: map[string]network.KindStats{}}
	}
	return s.recov.Traffic()
}

// BroadcastCost returns the atomic-broadcast network traffic incurred so
// far as (messages, bytes).
func (s *Store) BroadcastCost() (int64, int64) { return s.bcast.MessageCost() }

// BatchStats reports the broadcast-layer group-commit meters: total
// flushes, flushes that coalesced two or more updates, and the updates
// those multi-item batches carried. All zero when batching is off.
func (s *Store) BatchStats() (flushes, batches, batched int64) {
	if b, ok := s.bcast.(abcast.BatchMeter); ok {
		return b.BatchStats()
	}
	return 0, 0, 0
}

// QueryTraffic returns the m-linearizable query network's counters
// (zero-valued for m-sequential stores, whose queries are local).
func (s *Store) QueryTraffic() network.Stats { return s.replica.QueryTraffic() }

// NetStats aggregates transport counters — including fault-injection
// drops/duplicates and reliable-layer retransmissions — across every
// network the store runs on (broadcast, query, recovery). In a
// fault-free run the Dropped/Duplicated/Retransmitted counters are all
// zero.
func (s *Store) NetStats() network.Stats {
	var st network.Stats
	st.Merge(s.bcast.NetStats())
	st.Merge(s.replica.QueryTraffic())
	if s.recov != nil {
		st.Merge(s.recov.Traffic())
	}
	return st
}

// Exec runs pr as an m-operation of this process and returns its
// result with the execution's consistency metadata. opts.Level selects
// the per-request consistency level for queries (the zero options value
// keeps the store's full guarantee). With the default MaxInflight of 1
// concurrent calls serialize on the single issuing lane, preserving the
// one-operation-at-a-time contract; with more lanes they pipeline.
func (p *Process) Exec(pr mop.Procedure, opts ExecOptions) (Result, error) {
	f, err := p.ExecAsync(pr, opts)
	if err != nil {
		return Result{}, err
	}
	return f.Wait()
}

// ExecAsync issues pr without waiting for its response. The call
// blocks only while every issuing lane is occupied (MaxInflight
// operations already outstanding); the returned Future resolves when
// the operation's response event occurs — for a local read (an m-SC
// query or an m-lin ONE query), before ExecAsync returns. An operation
// in flight on lane l > 0 is recorded under the virtual process id
// id + l*Procs — each lane is a sequential thread of control, so
// histories with pipelining remain well-formed and checkable.
func (p *Process) ExecAsync(pr mop.Procedure, opts ExecOptions) (*Future, error) {
	s := p.store
	if s.closed.Load() {
		return nil, ErrClosed
	}
	var lane int
	select {
	case lane = <-p.lanes:
	case <-s.stopCh:
		return nil, ErrClosed
	}

	s.inFlight.Add(1)
	f := &Future{done: make(chan struct{})}
	// The completion runs wherever the replica generates the response:
	// on one of its loops or timers or, for a local read, this caller.
	err := s.replica.Submit(p.id, pr, opts, func(rec mop.Record, err error) {
		if err != nil {
			s.inFlight.Add(-1)
			f.err = err
		} else {
			if lane > 0 {
				rec.Proc = p.id + lane*s.cfg.Procs
			}
			s.record(&rec)
			f.result = Result{
				Value:        rec.Result,
				Level:        rec.Level,
				Responders:   rec.Responders,
				IsConsistent: rec.IsConsistent,
			}
		}
		p.lanes <- lane
		close(f.done)
	})
	if err != nil {
		s.inFlight.Add(-1)
		p.lanes <- lane
		return nil, err
	}
	return f, nil
}

// record is the record step of a completed m-operation: under the
// record mutex it stamps the response, appends the record and hands it
// to the RecordSink, so records are captured in response order; then
// the operation leaves the in-flight count.
func (s *Store) record(rec *mop.Record) {
	s.mu.Lock()
	rec.Resp = s.clock.Now()
	if !s.cfg.DisableRecording {
		s.records = append(s.records, *rec)
	}
	if s.cfg.RecordSink != nil {
		s.cfg.RecordSink(*rec)
	}
	s.inFlight.Add(-1)
	s.mu.Unlock()
}

// Convenience operations built on Exec. Each takes the store's default
// level; use Exec directly for per-request levels.

// Read atomically reads one object.
func (p *Process) Read(x object.ID) (object.Value, error) {
	res, err := p.Exec(mop.ReadOp{X: x}, ExecOptions{})
	if err != nil {
		return 0, err
	}
	return res.Value.(object.Value), nil
}

// Write atomically writes one object.
func (p *Process) Write(x object.ID, v object.Value) error {
	_, err := p.Exec(mop.WriteOp{X: x, V: v}, ExecOptions{})
	return err
}

// MultiRead atomically reads several objects.
func (p *Process) MultiRead(xs ...object.ID) ([]object.Value, error) {
	res, err := p.Exec(mop.MultiRead{Xs: xs}, ExecOptions{})
	if err != nil {
		return nil, err
	}
	return res.Value.([]object.Value), nil
}

// Sum atomically sums several objects.
func (p *Process) Sum(xs ...object.ID) (object.Value, error) {
	res, err := p.Exec(mop.Sum{Xs: xs}, ExecOptions{})
	if err != nil {
		return 0, err
	}
	return res.Value.(object.Value), nil
}

// MAssign atomically writes several objects.
func (p *Process) MAssign(writes map[object.ID]object.Value) error {
	_, err := p.Exec(mop.MAssign{Writes: writes}, ExecOptions{})
	return err
}

// CAS atomically compare-and-swaps one object.
func (p *Process) CAS(x object.ID, old, new object.Value) (bool, error) {
	res, err := p.Exec(mop.CAS{X: x, Old: old, New: new}, ExecOptions{})
	if err != nil {
		return false, err
	}
	return res.Value.(bool), nil
}

// DCAS atomically double-compare-and-swaps two objects (Section 1).
func (p *Process) DCAS(x1, x2 object.ID, old1, old2, new1, new2 object.Value) (bool, error) {
	res, err := p.Exec(mop.DCAS{X1: x1, X2: x2, Old1: old1, Old2: old2, New1: new1, New2: new2}, ExecOptions{})
	if err != nil {
		return false, err
	}
	return res.Value.(bool), nil
}

// Transfer atomically moves amount between two objects if funds suffice.
func (p *Process) Transfer(from, to object.ID, amount object.Value) (bool, error) {
	res, err := p.Exec(mop.Transfer{From: from, To: to, Amount: amount}, ExecOptions{})
	if err != nil {
		return false, err
	}
	return res.Value.(bool), nil
}

// VerifyResult reports the outcome of Verify.
type VerifyResult struct {
	// OK is true when the recorded history satisfies the store's
	// configured consistency condition.
	OK bool
	// Witness is the legal sequential history found.
	Witness history.Sequence
	// History is the reconstructed execution history.
	History *history.History
}

// Verify reconstructs the recorded history and checks it against the
// store's consistency condition using the polynomial Theorem 7 procedure
// (the protocol's atomic-broadcast order puts every history under the
// WW-constraint). An error indicates the verification could not run;
// OK=false with nil error indicates a genuine consistency violation —
// which, per Theorems 15 and 20, would be a protocol bug.
func (s *Store) Verify() (VerifyResult, error) {
	base := history.MSequentialBase
	if s.cfg.Consistency == MLinearizable {
		base = history.MLinearizableBase
	}
	if s.smap != nil {
		// A sharded store enforces no single global update order: each
		// object's writes are ordered by its shard's schedule, and a
		// chain over the composite sequence numbers would contradict
		// process order whenever a busy shard's slot counter runs ahead
		// of an idle one's. The per-object version chains are exactly
		// the order the composed schedules did enforce, and they put
		// the history under the OO-constraint (Theorem 7, OO branch —
		// the same derivation the locking protocol uses).
		recs, err := s.quiescentRecords()
		if err != nil {
			return VerifyResult{}, err
		}
		return VerifyOO(s.reg, recs, base)
	}
	h, updates, err := s.buildHistory()
	if err != nil {
		return VerifyResult{}, err
	}
	sync := checker.SyncFromUpdates(h, updates)
	res, err := checker.AdmissibleUnderConstraintBase(h, base, sync, checker.WW)
	if err != nil {
		return VerifyResult{History: h}, err
	}
	return VerifyResult{OK: res.Admissible, Witness: res.Witness, History: h}, nil
}

// History reconstructs the formal execution history from the records.
// All Execute calls must have returned (the store must be quiescent).
func (s *Store) History() (*history.History, error) {
	h, _, err := s.buildHistory()
	return h, err
}

// VerifyExact re-checks the store's consistency condition with the
// exact (NP-hard) decider instead of the polynomial Theorem 7 procedure.
// Intended for small runs and test harnesses; Verify is the production
// path.
func (s *Store) VerifyExact() (VerifyResult, error) {
	h, _, err := s.buildHistory()
	if err != nil {
		return VerifyResult{}, err
	}
	check := checker.MLinearizable
	if s.cfg.Consistency == MSequential {
		check = checker.MSequentiallyConsistent
	}
	res, err := check(h)
	if err != nil {
		return VerifyResult{History: h}, err
	}
	return VerifyResult{OK: res.Admissible, Witness: res.Witness, History: h}, nil
}

// VerifyLeveled re-checks a mixed-level execution with the exact
// deciders: the full history against m-sequential consistency and the
// restriction to updates plus strong-level queries against
// m-linearizability (checker.MixedLevels). This is the verification
// entry point for m-linearizable stores that served per-request levels;
// for single-level runs it is equivalent to VerifyExact at the
// corresponding condition.
func (s *Store) VerifyLeveled() (VerifyResult, error) {
	h, _, err := s.buildHistory()
	if err != nil {
		return VerifyResult{}, err
	}
	res, err := checker.MixedLevels(h)
	if err != nil {
		return VerifyResult{History: h}, err
	}
	witness := res.Full.Witness
	if res.Consistent {
		witness = res.Strong.Witness
	}
	return VerifyResult{OK: res.Consistent, Witness: witness, History: h}, nil
}

// UpdateOrder returns the atomic-broadcast delivery order of the update
// m-operations of the recorded history, as history IDs (the ~ww order).
func (s *Store) UpdateOrder() ([]history.ID, error) {
	_, updates, err := s.buildHistory()
	return updates, err
}

// Records returns a copy of the raw protocol records captured so far, in
// capture order. The axiom validator and the streaming monitor consume
// these directly.
func (s *Store) Records() []mop.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]mop.Record, len(s.records))
	copy(out, s.records)
	return out
}
