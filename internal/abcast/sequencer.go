package abcast

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/network"
)

// Sequencer is a fixed-sequencer atomic broadcast: every broadcast is
// first sent to a sequencer, which stamps it with the next global
// sequence number and re-broadcasts it to all member processes. Members
// reorder arrivals by sequence number, so the underlying network may
// delay and reorder freely.
//
// Without failure detection (FD nil) the sequencer is a dedicated
// endpoint and a single point of failure, exactly as in the crash-free
// build. With FD configured, the sequencer role instead lives on the
// lowest-numbered live member and fails over deterministically: when the
// leader of view v (process v mod n) is suspected, the next unsuspected
// process in view order takes over, collects every live member's
// received order log, adopts the longest prefix, re-announces it, and
// resumes assigning from its end — so no delivered order is lost and no
// sequence number is assigned twice, under the timing assumption
// documented in failover.go. Origins re-send still-unordered requests to
// the new leader; duplicate assignment is prevented by per-request
// (origin, reqID) keys.
type Sequencer struct {
	members   // Subscribe and stop
	n         int
	seqEP     int // dedicated sequencer endpoint (FD nil); defaults to n
	net       network.Link
	resume    []chan int64 // crash-free member fast-forward (see Resume)
	closed    atomic.Bool
	wg        sync.WaitGroup
	headerB   int
	fd        *FDConfig
	failovers atomic.Int64
}

var (
	_ Broadcaster = (*Sequencer)(nil)
	_ Resumer     = (*Sequencer)(nil)
)

// The wire payload types below are marshalled by their MarshalWire
// methods (wire.go) over a serializing transport (internal/transport);
// within the simulated network they travel by reference unchanged.

type seqRequest struct {
	Origin  int
	ReqID   int64
	Payload any
	Bytes   int
}

type seqOrder struct {
	View    int
	Seq     int64
	Origin  int
	ReqID   int64
	Payload any
	Bytes   int
}

// seqSubmit routes a Broadcast into the submitter's own member loop so
// request numbering and pending-request state have a single owner.
type seqSubmit struct {
	Payload any
	Bytes   int
}

// seqHB is a liveness heartbeat (failover mode only).
type seqHB struct{}

// seqSyncReq opens view v: the taking-over leader asks each member for
// its received order log. Receiving it fences the member — orders from
// views below v are discarded from then on.
type seqSyncReq struct {
	View int
}

// seqSyncResp is a member's fenced order-log prefix.
type seqSyncResp struct {
	View   int
	Orders []seqOrder
}

// seqNewView announces the adopted log of view v; members append any
// extension and re-send still-unordered requests to the new leader.
type seqNewView struct {
	View   int
	Orders []seqOrder
}

// SequencerConfig parameterizes NewSequencer.
type SequencerConfig struct {
	// Procs is the number of member processes.
	Procs int
	// Seed, MinDelay, MaxDelay parameterize the private network.
	Seed               int64
	MinDelay, MaxDelay time.Duration
	// Faults optionally injects delivery faults into the private network;
	// the reliable layer (network.NewLink) then restores exactly-once
	// delivery underneath the protocol.
	Faults *network.Faults
	// FD enables heartbeat failure detection and sequencer failover. Nil
	// keeps the crash-free fixed-sequencer behavior.
	FD *FDConfig
	// Links optionally supplies the transport (channel name Channel);
	// nil uses the simulated network stack.
	Links network.Factory
	// Channel overrides the transport channel name (default "abcast").
	// Sharded stores run one lane per shard, each on its own channel
	// ("abcast.s0", "abcast.s1", ...), multiplexed over one transport.
	Channel string
	// Endpoint overrides the dedicated sequencer endpoint (FD nil only;
	// default cfg.Procs). Over a real transport, endpoint e is owned by
	// daemon e mod len(addrs), so per-shard lanes pick distinct endpoints
	// (Procs+shard) to spread the sequencers across the cluster instead
	// of piling every lane's coordinator on daemon 0.
	Endpoint int
}

// NewSequencer starts a sequencer-based atomic broadcast group.
func NewSequencer(cfg SequencerConfig) (*Sequencer, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("abcast: invalid proc count %d", cfg.Procs)
	}
	channel := cfg.Channel
	if channel == "" {
		channel = "abcast"
	}
	seqEP := cfg.Endpoint
	if seqEP == 0 {
		seqEP = cfg.Procs
	}
	if seqEP < cfg.Procs {
		return nil, fmt.Errorf("abcast: sequencer endpoint %d collides with member endpoints", seqEP)
	}
	endpoints := cfg.Procs
	if cfg.FD == nil {
		// A dedicated endpoint (seqEP, default cfg.Procs) sequences.
		endpoints = seqEP + 1
	} else if cfg.Endpoint != 0 {
		return nil, fmt.Errorf("abcast: Endpoint is only meaningful without failover (FD)")
	}
	net, err := cfg.Links.Build(channel, network.Config{
		Procs:    endpoints,
		Seed:     cfg.Seed,
		MinDelay: cfg.MinDelay,
		MaxDelay: cfg.MaxDelay,
		// Failover mode relies on per-link FIFO: a member accepts orders
		// only in assignment sequence, with no hold-back buffer. (With
		// faults configured the reliable layer provides FIFO regardless.)
		FIFO:   cfg.FD != nil,
		Faults: cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	s := &Sequencer{
		n:       cfg.Procs,
		seqEP:   seqEP,
		net:     net,
		members: members{subs: NewSubscribers(cfg.Procs), stop: make(chan struct{})},
		resume:  make([]chan int64, cfg.Procs),
		headerB: 16, // sequence number + sender, nominal wire overhead
	}
	for i := range s.resume {
		s.resume[i] = make(chan int64)
	}
	if cfg.FD != nil {
		fd := cfg.FD.withDefaults()
		s.fd = &fd
	}
	if s.fd == nil {
		s.wg.Add(1)
		go s.runSequencer()
		for p := 0; p < cfg.Procs; p++ {
			s.wg.Add(1)
			go s.runMember(p)
		}
	} else {
		for p := 0; p < cfg.Procs; p++ {
			s.wg.Add(1)
			go s.runFailoverMember(p)
		}
	}
	return s, nil
}

// Broadcast implements Broadcaster.
func (s *Sequencer) Broadcast(from int, payload any, bytes int) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if from < 0 || from >= s.n {
		return fmt.Errorf("abcast: broadcast from invalid process %d", from)
	}
	if s.fd != nil {
		// Route through the submitter's own loop, which owns request
		// numbering and re-sends across failovers.
		return s.net.Send(from, from, "abcast.submit", seqSubmit{Payload: payload, Bytes: bytes}, 0)
	}
	req := seqRequest{Origin: from, Payload: payload, Bytes: bytes}
	return s.net.Send(from, s.seqEP, "abcast.req", req, bytes+s.headerB)
}

// MessageCost implements Broadcaster. In failover mode, submit
// self-messages are metered at zero bytes and excluded from the count so
// the cost reflects actual protocol traffic.
func (s *Sequencer) MessageCost() (int64, int64) {
	st := s.net.Stats()
	msgs := st.Messages
	if sub, ok := st.ByKind["abcast.submit"]; ok {
		msgs -= sub.Messages
	}
	return msgs, st.Bytes
}

// NetStats implements Broadcaster.
func (s *Sequencer) NetStats() network.Stats { return s.net.Stats() }

// Deliveries subscribes p with a forwarder into a channel of 1024
// slots, so its reader may fall that far behind before p's member loop
// waits (until Close), and returns the channel. Like Subscribe, it is
// called once per process. Its only caller is the benchmark's order
// harness; ROADMAP W-1 makes that harness subscribe directly and
// deletes this method.
func (s *Sequencer) Deliveries(p int) <-chan Delivery {
	ch := make(chan Delivery, 1024)
	s.Subscribe(p, func(d Delivery) {
		select {
		case ch <- d:
		case <-s.stop:
		}
	})
	return ch
}

// Failovers reports how many sequencer takeovers have completed.
func (s *Sequencer) Failovers() int64 { return s.failovers.Load() }

// Close implements Broadcaster.
func (s *Sequencer) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stop)
	s.net.Close()
	s.wg.Wait()
}

// runSequencer is the dedicated-endpoint sequencer loop (FD nil).
func (s *Sequencer) runSequencer() {
	defer s.wg.Done()
	var next int64
	for {
		select {
		case <-s.stop:
			return
		case msg := <-s.net.Recv(s.seqEP):
			req, ok := msg.Payload.(seqRequest)
			if !ok {
				continue // foreign payloads are ignored, not fatal
			}
			ord := seqOrder{Seq: next, Origin: req.Origin, Payload: req.Payload, Bytes: req.Bytes}
			next++
			for p := 0; p < s.n; p++ {
				if err := s.net.Send(s.seqEP, p, "abcast.ord", ord, req.Bytes+s.headerB); err != nil {
					return // network closed
				}
			}
		}
	}
}

// runMember is the crash-free member loop (FD nil): reorder by sequence
// number, deliver gap-free. A Resume fast-forwards the hold-back buffer
// past orders a restarted process recovered via checkpoint instead.
func (s *Sequencer) runMember(p int) {
	defer s.wg.Done()
	buf := newDeliveryBuffer()
	for {
		select {
		case <-s.stop:
			return
		case next := <-s.resume[p]:
			s.subs.Deliver(p, buf.fastForward(next)...)
		case msg := <-s.net.Recv(p):
			ord, ok := msg.Payload.(seqOrder)
			if !ok {
				continue
			}
			s.subs.Deliver(p, buf.add(Delivery{Seq: ord.Seq, From: ord.Origin, Payload: ord.Payload})...)
		}
	}
}

// Resume implements Resumer for the crash-free (dedicated-endpoint)
// mode: member p's hold-back buffer skips ahead to sequence next,
// covering orders the process recovered via checkpoint transfer. In
// failover mode this is a no-op — there the rejoin protocol re-announces
// the adopted log, so no fast-forward is needed. Resume blocks until
// the member loop picks the request up (or the broadcaster closes), so
// deliveries observed afterwards are already fast-forwarded.
func (s *Sequencer) Resume(p int, next int64) {
	if s.fd != nil || p < 0 || p >= s.n {
		return
	}
	select {
	case s.resume[p] <- next:
	case <-s.stop:
	}
}

// seqReqKey identifies a request across re-sends and failovers.
type seqReqKey struct {
	origin int
	reqID  int64
}

// seqPending is a still-unordered local request awaiting assignment.
type seqPending struct {
	req  seqRequest
	sent time.Time
}

// seqMemberState is the per-process state of the failover-mode loop. One
// goroutine owns it; nothing here is shared.
type seqMemberState struct {
	view      int
	log       []seqOrder // contiguous received assignment prefix
	delivered int64      // local renumbered delivery counter
	dedup     map[seqReqKey]bool
	pending   []seqPending
	nextReqID int64

	// Leader-only state, valid when leading() and not syncing.
	nextSeq  int64
	assigned map[seqReqKey]bool
	queued   []seqRequest // requests received mid-sync

	syncing   bool
	syncView  int
	syncResps map[int][]seqOrder

	// rejoining is set while this process is crashed and cleared once it
	// learns the current view after restarting (or after a grace period
	// proves no takeover happened). While set, the process refuses the
	// leader role: right after a restart its view number is stale, and
	// requests held by the reliable layer across the down window would
	// otherwise be assigned — and self-delivered — under a superseded
	// view that every other member fences. Dropped requests are not
	// lost: origins re-send still-unordered requests every detection
	// timeout.
	rejoining      bool
	rejoinDeadline time.Time
}

// runFailoverMember is the leader-among-members loop (FD configured).
// The leader of view v is process v mod n; view changes are driven by
// each member's local failure detector and fenced by view numbers.
func (s *Sequencer) runFailoverMember(p int) {
	defer s.wg.Done()
	st := &seqMemberState{
		dedup:     make(map[seqReqKey]bool),
		assigned:  make(map[seqReqKey]bool),
		syncResps: make(map[int][]seqOrder),
	}
	det := newDetector(s.n, p, s.fd.Timeout)
	tick := time.NewTicker(s.fd.Interval)
	defer tick.Stop()

	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if s.net.Down(p) {
				// A crashed process takes no actions and suspects no one;
				// resetting here also prevents a storm of suspicion at
				// restart.
				det.reset()
				st.rejoining = true
				st.rejoinDeadline = time.Time{}
				continue
			}
			if st.rejoining {
				if st.rejoinDeadline.IsZero() {
					// Just restarted: give the group two detection timeouts
					// to show a newer view before concluding that no
					// takeover happened while this process was down.
					st.rejoinDeadline = time.Now().Add(2 * s.fd.Timeout)
				} else if time.Now().After(st.rejoinDeadline) {
					st.rejoining = false
				}
			}
			for q := 0; q < s.n; q++ {
				if q == p {
					continue
				}
				if s.net.Send(p, q, "abcast.hb", seqHB{}, s.headerB) != nil {
					return
				}
			}
			if !s.tickFailover(p, st, det) {
				return
			}
		case msg := <-s.net.Recv(p):
			// No down-window gate here: the reliable layer already drops
			// (unacknowledged) everything that lands while the endpoint is
			// down, so whatever reaches this loop must be processed — a
			// frame read marginally after the crash instant is equivalent
			// to the crash striking marginally later, and discarding it
			// would lose a delivery this process can never recover.
			det.hear(msg.From)
			if !s.handleFailoverMsg(p, st, det, msg) {
				return
			}
		}
	}
}

// tickFailover runs the periodic failover checks: re-send stale pending
// requests, initiate a takeover if this process is next in line behind a
// suspected leader, and re-check sync completion as suspicions evolve.
func (s *Sequencer) tickFailover(p int, st *seqMemberState, det *detector) bool {
	leader := st.view % s.n
	// A process that suspects a majority is more likely isolated or
	// freshly restarted than surrounded by crashes; it must not fence the
	// live group with a takeover of its own.
	if det.suspected(leader) && !st.syncing && !st.rejoining && det.suspectedCount() <= (s.n-1)/2 {
		v := st.view + 1
		for det.suspected(v % s.n) {
			v++
		}
		if v%s.n == p {
			if !s.startSync(p, st, v) {
				return false
			}
		}
	}
	if st.syncing && !s.finishSyncIfReady(p, st, det) {
		return false
	}
	var stale []seqRequest
	for i := range st.pending {
		if time.Since(st.pending[i].sent) > s.fd.Timeout {
			st.pending[i].sent = time.Now()
			stale = append(stale, st.pending[i].req)
		}
	}
	// Snapshot before sending: assignment on the leader path removes
	// entries from st.pending as they are ordered.
	for _, req := range stale {
		if !s.sendRequest(p, st, req) {
			return false
		}
	}
	return true
}

// sendRequest routes req to the current leader (directly into leader
// handling when this process leads).
func (s *Sequencer) sendRequest(p int, st *seqMemberState, req seqRequest) bool {
	leader := st.view % s.n
	if leader == p {
		return s.leaderAssign(p, st, req)
	}
	return s.net.Send(p, leader, "abcast.req", req, req.Bytes+s.headerB) == nil
}

// leaderAssign stamps one request with the next sequence number (leader
// role only). Mid-sync requests are queued until the view is installed.
func (s *Sequencer) leaderAssign(p int, st *seqMemberState, req seqRequest) bool {
	if st.rejoining {
		// Stale leadership: this process crashed while leading and has not
		// yet learned whether a takeover superseded its view. Assigning now
		// could append orders every fenced member discards. Drop the
		// request; the origin's periodic re-send retries it once the view
		// question settles.
		return true
	}
	if st.syncing {
		st.queued = append(st.queued, req)
		return true
	}
	key := seqReqKey{req.Origin, req.ReqID}
	if st.assigned[key] {
		return true
	}
	st.assigned[key] = true
	ord := seqOrder{View: st.view, Seq: st.nextSeq, Origin: req.Origin, ReqID: req.ReqID, Payload: req.Payload, Bytes: req.Bytes}
	st.nextSeq++
	s.appendOrder(p, st, ord)
	for q := 0; q < s.n; q++ {
		if q == p {
			continue
		}
		if s.net.Send(p, q, "abcast.ord", ord, req.Bytes+s.headerB) != nil {
			return false
		}
	}
	return true
}

// appendOrder appends ord at the end of the local log and delivers it,
// deduplicating re-assigned requests. Every member appends the same log,
// so the renumbered delivery streams are identical.
func (s *Sequencer) appendOrder(p int, st *seqMemberState, ord seqOrder) {
	st.log = append(st.log, ord)
	key := seqReqKey{ord.Origin, ord.ReqID}
	// Drop the request from the pending list once it is ordered.
	if ord.Origin == p {
		for i := range st.pending {
			if st.pending[i].req.ReqID == ord.ReqID {
				st.pending = append(st.pending[:i], st.pending[i+1:]...)
				break
			}
		}
	}
	if st.dedup[key] {
		return
	}
	st.dedup[key] = true
	s.subs.Deliver(p, Delivery{Seq: st.delivered, From: ord.Origin, Payload: ord.Payload})
	st.delivered++
}

// startSync begins a takeover of view v: fence and solicit every other
// member's log. This process's own log seeds the response set.
func (s *Sequencer) startSync(p int, st *seqMemberState, v int) bool {
	st.syncing = true
	st.syncView = v
	st.view = v
	st.syncResps = map[int][]seqOrder{p: st.log}
	for q := 0; q < s.n; q++ {
		if q == p {
			continue
		}
		if s.net.Send(p, q, "abcast.sync", seqSyncReq{View: v}, s.headerB) != nil {
			return false
		}
	}
	return true
}

// finishSyncIfReady completes the takeover once every currently-live
// member has reported: adopt the longest log (a superset of everything
// any live member delivered, per the timing assumption), announce it,
// and resume assigning from its end.
func (s *Sequencer) finishSyncIfReady(p int, st *seqMemberState, det *detector) bool {
	for q := 0; q < s.n; q++ {
		if q == p || det.suspected(q) {
			continue
		}
		if _, ok := st.syncResps[q]; !ok {
			return true // keep waiting
		}
	}
	adopted := st.log
	for _, log := range st.syncResps {
		if len(log) > len(adopted) {
			adopted = log
		}
	}
	// Install the extension beyond what this process already has.
	for _, ord := range adopted[len(st.log):] {
		s.appendOrder(p, st, ord)
	}
	st.assigned = make(map[seqReqKey]bool, len(st.log))
	for _, ord := range st.log {
		st.assigned[seqReqKey{ord.Origin, ord.ReqID}] = true
	}
	st.nextSeq = int64(len(st.log))
	st.syncing = false
	st.syncResps = make(map[int][]seqOrder)
	s.failovers.Add(1)

	logCopy := append([]seqOrder(nil), st.log...)
	bytes := s.syncBytes(logCopy)
	for q := 0; q < s.n; q++ {
		if q == p {
			continue
		}
		if s.net.Send(p, q, "abcast.View", seqNewView{View: st.view, Orders: logCopy}, bytes) != nil {
			return false
		}
	}
	// Serve requests that arrived mid-sync, then re-submit our own
	// still-unordered requests.
	queued := st.queued
	st.queued = nil
	for _, req := range queued {
		if !s.leaderAssign(p, st, req) {
			return false
		}
	}
	own := make([]seqRequest, len(st.pending))
	for i := range st.pending {
		st.pending[i].sent = time.Now()
		own[i] = st.pending[i].req
	}
	// Snapshot before assigning: each assignment removes its entry from
	// st.pending.
	for _, req := range own {
		if !s.leaderAssign(p, st, req) {
			return false
		}
	}
	return true
}

func (s *Sequencer) syncBytes(orders []seqOrder) int {
	b := s.headerB
	for i := range orders {
		b += orders[i].Bytes + s.headerB
	}
	return b
}

// handleFailoverMsg dispatches one inbox message in failover mode.
func (s *Sequencer) handleFailoverMsg(p int, st *seqMemberState, det *detector, msg network.Message) bool {
	switch m := msg.Payload.(type) {
	case seqHB:
		// Liveness only; det.hear already ran.
	case seqSubmit:
		req := seqRequest{Origin: p, ReqID: st.nextReqID, Payload: m.Payload, Bytes: m.Bytes}
		st.nextReqID++
		st.pending = append(st.pending, seqPending{req: req, sent: time.Now()})
		return s.sendRequest(p, st, req)
	case seqRequest:
		if st.view%s.n == p {
			return s.leaderAssign(p, st, m)
		}
		// Stale leader address: the origin will re-send after it learns
		// the new view; nothing to do.
	case seqOrder:
		if m.View < st.view {
			return true // fenced: assigned under a superseded view
		}
		if m.View > st.view {
			st.view = m.View
			st.rejoining = false // current view learned
		}
		// Per-link FIFO from a single leader makes orders arrive in
		// assignment sequence; anything else is a superseded duplicate.
		if m.Seq == int64(len(st.log)) {
			s.appendOrder(p, st, m)
		}
	case seqSyncReq:
		if m.View < st.view {
			return true // stale takeover attempt
		}
		if m.View > st.view {
			st.view = m.View // fence: superseded-view orders now discarded
			st.syncing = false
			st.queued = nil
			st.rejoining = false // current view learned
		}
		logCopy := append([]seqOrder(nil), st.log...)
		return s.net.Send(p, msg.From, "abcast.syncr",
			seqSyncResp{View: m.View, Orders: logCopy}, s.syncBytes(logCopy)) == nil
	case seqSyncResp:
		if st.syncing && m.View == st.syncView {
			st.syncResps[msg.From] = m.Orders
			return s.finishSyncIfReady(p, st, det)
		}
	case seqNewView:
		if m.View < st.view {
			return true
		}
		if m.View > st.view {
			st.rejoining = false // current view learned
			// A sync of a now-superseded view would wait forever for
			// responses nobody will send. Queued requests are dropped,
			// not lost: their origins re-send every detection timeout.
			st.syncing = false
			st.queued = nil
		}
		st.view = m.View
		for _, ord := range m.Orders[min(len(st.log), len(m.Orders)):] {
			s.appendOrder(p, st, ord)
		}
		// Re-send anything of ours the adopted log does not contain
		// (snapshot first: sendRequest can shrink st.pending).
		own := make([]seqRequest, len(st.pending))
		for i := range st.pending {
			st.pending[i].sent = time.Now()
			own[i] = st.pending[i].req
		}
		for _, req := range own {
			if !s.sendRequest(p, st, req) {
				return false
			}
		}
	}
	return true
}
