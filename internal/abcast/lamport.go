package abcast

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/network"
)

// Lamport is the classical Lamport-clock total-order broadcast: every
// data message carries a logical timestamp, every process acknowledges
// every data message to every process, and a message is delivered once
// it heads the (timestamp, sender)-ordered queue and every process has
// been heard from with a larger timestamp. No process plays a special
// role, at the cost of n× more messages than the sequencer — the
// trade-off the broadcast ablation benchmark measures.
//
// Correctness requires FIFO links (a process must not be heard "out of
// order"), so Lamport runs its private network in FIFO mode.
type Lamport struct {
	n       int
	net     network.Link
	outs    []chan Delivery
	stop    chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup
	headerB int
	fd      *FDConfig
}

var _ Broadcaster = (*Lamport)(nil)

// Wire payloads are marshalled by their MarshalWire methods (wire.go)
// when they cross a serializing transport (internal/transport).

type lamportSubmit struct {
	Payload any
	Bytes   int
}

type lamportData struct {
	TS      int64
	From    int
	Payload any
	Bytes   int
}

type lamportAck struct {
	TS   int64
	From int
	// Heard[q] is the sender's lastHeard[q] at send time — gossip that
	// makes quorum exclusion of a suspect safe; see flush in runMember.
	Heard []int64
}

// LamportConfig parameterizes NewLamport.
type LamportConfig struct {
	Procs              int
	Seed               int64
	MinDelay, MaxDelay time.Duration
	// Faults optionally injects delivery faults. The reliable layer then
	// provides the FIFO, exactly-once links the algorithm requires.
	Faults *network.Faults
	// FD enables heartbeat failure detection: suspected-crashed processes
	// are excluded from the all-ack stability quorum so delivery keeps
	// making progress across crashes. Heartbeats double as Lamport-clock
	// null messages, so a quiet live process cannot stall delivery
	// either. Exclusion only ever applies to a minority (fewer than
	// ceil(n/2) suspects); beyond that the process stalls rather than
	// risk delivering without a majority — the guard against a
	// partitioned or freshly-restarted minority diverging on its own.
	// Nil keeps the full-quorum crash-free behavior.
	FD *FDConfig
	// Links optionally supplies the transport (channel name Channel);
	// nil uses the simulated network stack. The transport must provide
	// per-link FIFO ordering, as TCP connections do.
	Links network.Factory
	// Channel overrides the transport channel name (default "abcast");
	// sharded stores run one lane per shard on distinct channels.
	Channel string
}

// NewLamport starts a Lamport-clock atomic broadcast group.
func NewLamport(cfg LamportConfig) (*Lamport, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("abcast: invalid proc count %d", cfg.Procs)
	}
	channel := cfg.Channel
	if channel == "" {
		channel = "abcast"
	}
	net, err := cfg.Links.Build(channel, network.Config{
		Procs:    cfg.Procs,
		Seed:     cfg.Seed,
		MinDelay: cfg.MinDelay,
		MaxDelay: cfg.MaxDelay,
		FIFO:     true,
		Faults:   cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	l := &Lamport{
		n:       cfg.Procs,
		net:     net,
		outs:    make([]chan Delivery, cfg.Procs),
		stop:    make(chan struct{}),
		headerB: 16,
	}
	if cfg.FD != nil {
		fd := cfg.FD.withDefaults()
		l.fd = &fd
	}
	for i := range l.outs {
		l.outs[i] = make(chan Delivery, 1024)
	}
	for p := 0; p < cfg.Procs; p++ {
		l.wg.Add(1)
		go l.runMember(p)
	}
	return l, nil
}

// Broadcast implements Broadcaster. The payload is routed through the
// sender's own member loop (as a self-message) so that the Lamport clock
// is only ever touched by that loop.
func (l *Lamport) Broadcast(from int, payload any, bytes int) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if from < 0 || from >= l.n {
		return fmt.Errorf("abcast: broadcast from invalid process %d", from)
	}
	return l.net.Send(from, from, "abcast.submit", lamportSubmit{Payload: payload, Bytes: bytes}, 0)
}

// Deliveries implements Broadcaster.
func (l *Lamport) Deliveries(p int) <-chan Delivery { return l.outs[p] }

// MessageCost implements Broadcaster. Submit self-messages are metered at
// zero bytes, so the cost reflects data and ack traffic.
func (l *Lamport) MessageCost() (int64, int64) {
	st := l.net.Stats()
	msgs := st.Messages
	if sub, ok := st.ByKind["abcast.submit"]; ok {
		msgs -= sub.Messages
	}
	return msgs, st.Bytes
}

// NetStats implements Broadcaster.
func (l *Lamport) NetStats() network.Stats { return l.net.Stats() }

// Close implements Broadcaster.
func (l *Lamport) Close() {
	if l.closed.Swap(true) {
		return
	}
	close(l.stop)
	l.net.Close()
	l.wg.Wait()
}

// lamportItem orders queue entries by (timestamp, sender).
type lamportItem struct {
	TS      int64
	From    int
	Payload any
}

type lamportQueue []lamportItem

func (q lamportQueue) Len() int { return len(q) }
func (q lamportQueue) Less(i, j int) bool {
	if q[i].TS != q[j].TS {
		return q[i].TS < q[j].TS
	}
	return q[i].From < q[j].From
}
func (q lamportQueue) Swap(i, j int)     { q[i], q[j] = q[j], q[i] }
func (q *lamportQueue) Push(x any)       { *q = append(*q, x.(lamportItem)) }
func (q *lamportQueue) Pop() any         { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }
func (q lamportQueue) head() lamportItem { return q[0] }

func (l *Lamport) runMember(p int) {
	defer l.wg.Done()
	var clock int64
	var queue lamportQueue
	heap.Init(&queue)
	// lastHeard[q] is the highest Lamport timestamp received from q. With
	// FIFO links q will never be heard below it again.
	lastHeard := make([]int64, l.n)
	for i := range lastHeard {
		lastHeard[i] = -1
	}
	var delivered int64

	// Failure detection (FD mode only): exclude a suspected minority
	// from the stability quorum so crashed processes cannot stall
	// delivery forever. Safe under the timing assumption in failover.go:
	// by the time a crashed process is suspected, all of its pre-crash
	// messages have long since arrived everywhere, so nothing from it
	// can still need ordering below the queue head.
	//
	// The timing assumption is hardened with heard-from gossip: every
	// ack and heartbeat carries the sender's lastHeard vector, tracked
	// in peerHeard[r][q] = the highest timestamp peer r has reported
	// hearing from q. Excluding q from the quorum is only acted on once
	// no peer has heard q beyond this process's own lastHeard[q]: a
	// peer that has proves frames from q below the exclusion horizon
	// are still in flight to us (q broadcast them to everyone, and the
	// links are reliable and FIFO), so delivery waits for them to land
	// instead of ordering past them and diverging when they arrive.
	// This closes the one-slow-copy race — a pre-crash frame that
	// reached the other members but is delayed past the detection
	// timeout on a single link — leaving only the all-copies-delayed
	// window, which the failure-detection timing assumption covers.
	var det *detector
	var peerHeard [][]int64
	tickCh := make(<-chan time.Time) // never fires without FD
	if l.fd != nil {
		det = newDetector(l.n, p, l.fd.Timeout)
		tick := time.NewTicker(l.fd.Interval)
		defer tick.Stop()
		tickCh = tick.C
		peerHeard = make([][]int64, l.n)
		for r := range peerHeard {
			peerHeard[r] = make([]int64, l.n)
			for q := range peerHeard[r] {
				peerHeard[r][q] = -1
			}
		}
	}
	excluded := func(q int) bool {
		return det != nil && det.suspected(q) && det.suspectedCount() <= (l.n-1)/2
	}
	// heardBeyond reports whether any peer has heard q past this
	// process's own view of q's stream.
	heardBeyond := func(q int) bool {
		for r := 0; r < l.n; r++ {
			if r == p || r == q {
				continue
			}
			if peerHeard[r][q] > lastHeard[q] {
				return true
			}
		}
		return false
	}
	// Rejoin protocol (FD mode only): after a crash-restart boundary,
	// this process's clock is frozen at its pre-crash value while the
	// survivors' clocks — and delivery horizons — have moved far past
	// it. Stamping a submit with that stale clock would order it below
	// messages the survivors already delivered: they would deliver it
	// late while this replica delivers it early, and the total order
	// diverges. So on the down→up transition the member enters a
	// rejoining state: submits (redelivered by the reliable layer or
	// freshly issued) are deferred, and a marker heartbeat with
	// timestamp rejoinMark announces the restart. Rejoin completes once,
	// for every peer q, either q's ack/heartbeat gossip shows
	// heard[p] >= rejoinMark — proving q received a post-restart message
	// from p, after which q's deliveries are gated on p's own sent
	// timestamps — or q is itself suspected crashed. The qualifying
	// ack's timestamp (absorbed into the clock on receipt) exceeds
	// everything q delivered before it heard p, so once rejoin
	// completes, a fresh stamp clock+1 is above every replica's
	// delivery horizon and the deferred submits are released.
	wasDown := false
	rejoining := false
	var rejoinMark int64
	var rejoinOK []bool
	var deferred []lamportSubmit
	if l.fd != nil {
		rejoinOK = make([]bool, l.n)
	}
	// gossip snapshots lastHeard for an outgoing ack or heartbeat. The
	// copy is shared by the whole fan-out (receivers only read it) but
	// must not alias the live array this loop keeps mutating.
	gossip := func() []int64 {
		if l.fd == nil {
			return nil
		}
		return append([]int64(nil), lastHeard...)
	}
	mergeGossip := func(from int, heard []int64) {
		if peerHeard == nil || len(heard) != l.n {
			return
		}
		for q, ts := range heard {
			if ts > peerHeard[from][q] {
				peerHeard[from][q] = ts
			}
		}
	}
	// sendHB broadcasts a heartbeat (a Lamport null message) at the
	// current clock. False means the transport closed.
	sendHB := func() bool {
		hb := lamportAck{TS: clock, From: p, Heard: gossip()}
		for q := 0; q < l.n; q++ {
			if q == p {
				continue
			}
			if l.net.Send(p, q, "abcast.hb", hb, l.headerB+8*len(hb.Heard)) != nil {
				return false
			}
		}
		return true
	}
	// submit stamps one submission with the next clock value and
	// disseminates it; the sender's own copy enters the queue
	// synchronously (routing it through the network would let
	// lastHeard[p], advanced by later acks, overtake an in-flight own
	// data message and deliver a competing message first).
	submit := func(m lamportSubmit) bool {
		clock++
		data := lamportData{TS: clock, From: p, Payload: m.Payload, Bytes: m.Bytes}
		heap.Push(&queue, lamportItem{TS: data.TS, From: p, Payload: data.Payload})
		if lastHeard[p] < clock {
			lastHeard[p] = clock
		}
		for q := 0; q < l.n; q++ {
			if q == p {
				continue
			}
			if l.net.Send(p, q, "abcast.data", data, m.Bytes+l.headerB) != nil {
				return false
			}
		}
		return true
	}
	// enterRejoin runs at the down→up boundary: all peers must re-prove
	// acquaintance before any deferred submit is stamped.
	enterRejoin := func() bool {
		wasDown = false
		rejoining = true
		for i := range rejoinOK {
			rejoinOK[i] = false
		}
		clock++
		rejoinMark = clock
		return sendHB()
	}
	rejoinDone := func() bool {
		for q := 0; q < l.n; q++ {
			if q == p || rejoinOK[q] || det.suspected(q) {
				continue
			}
			return false
		}
		return true
	}
	finishRejoin := func() bool {
		rejoining = false
		for _, m := range deferred {
			if !submit(m) {
				return false
			}
		}
		deferred = nil
		return true
	}

	flush := func() bool {
		for queue.Len() > 0 {
			head := queue.head()
			stable := true
			for q := 0; q < l.n; q++ {
				if q == head.From {
					continue // the sender's own data message is in hand
				}
				if excluded(q) && !heardBeyond(q) {
					continue // suspected crashed: drop from the ack quorum
				}
				// (lastHeard[q], q) must exceed (head.TS, head.From)
				// lexicographically: with FIFO links q can then never be
				// heard with a smaller timestamp again.
				if lastHeard[q] < head.TS || (lastHeard[q] == head.TS && q < head.From) {
					stable = false
					break
				}
			}
			if !stable {
				return true
			}
			it := heap.Pop(&queue).(lamportItem)
			d := Delivery{Seq: delivered, From: it.From, Payload: it.Payload}
			delivered++
			select {
			case l.outs[p] <- d:
			case <-l.stop:
				return false
			}
		}
		return true
	}

	for {
		select {
		case <-l.stop:
			return
		case <-tickCh:
			if l.net.Down(p) {
				// A crashed process suspects no one and sends nothing; the
				// reset also avoids a suspicion storm at restart.
				det.reset()
				wasDown = true
				continue
			}
			if wasDown {
				if !enterRejoin() {
					return
				}
			} else {
				// Heartbeat as a Lamport null message: advances every
				// receiver's lastHeard so quiet processes don't stall
				// delivery, and feeds their failure detectors.
				clock++
				if !sendHB() {
					return
				}
			}
			// A suspicion maturing here can complete a pending rejoin
			// (the dead peer is no longer waited for) and may unblock
			// the queue head.
			if rejoining && rejoinDone() {
				if !finishRejoin() {
					return
				}
			}
			if !flush() {
				return
			}
		case msg := <-l.net.Recv(p):
			// No down-window gate: the reliable layer drops traffic
			// landing inside the down window unacknowledged (redelivered
			// after restart), so whatever reaches this loop is processed;
			// see sequencer.go. The first post-restart frame can race the
			// first post-restart tick, so the down→up boundary is
			// detected here too.
			if det != nil {
				if wasDown && !l.net.Down(p) {
					if !enterRejoin() {
						return
					}
				}
				det.hear(msg.From)
			}
			switch m := msg.Payload.(type) {
			case lamportSubmit:
				if det != nil && (rejoining || l.net.Down(p)) {
					// Stamping now would use the stale pre-crash clock and
					// order the message below the survivors' delivery
					// horizon; hold it until rejoin completes. (Down(p)
					// covers a submit accepted just before the crash
					// instant but processed after it.)
					deferred = append(deferred, m)
					continue
				}
				if !submit(m) {
					return
				}
				if !flush() {
					return
				}
			case lamportData:
				if m.TS > clock {
					clock = m.TS
				}
				clock++
				heap.Push(&queue, lamportItem{TS: m.TS, From: m.From, Payload: m.Payload})
				if lastHeard[m.From] < m.TS {
					lastHeard[m.From] = m.TS
				}
				if lastHeard[p] < clock {
					lastHeard[p] = clock
				}
				ack := lamportAck{TS: clock, From: p, Heard: gossip()}
				for q := 0; q < l.n; q++ {
					if q == p {
						continue
					}
					if err := l.net.Send(p, q, "abcast.ack", ack, l.headerB+8*len(ack.Heard)); err != nil {
						return
					}
				}
				if !flush() {
					return
				}
			case lamportAck:
				if m.TS > clock {
					clock = m.TS
				}
				clock++
				if lastHeard[m.From] < m.TS {
					lastHeard[m.From] = m.TS
				}
				mergeGossip(m.From, m.Heard)
				if rejoining {
					// heard[p] >= rejoinMark proves the peer received a
					// post-restart message from this process (every
					// pre-crash send carried a smaller timestamp).
					if len(m.Heard) == l.n && m.Heard[p] >= rejoinMark {
						rejoinOK[m.From] = true
					}
					if rejoinDone() {
						if !finishRejoin() {
							return
						}
					}
				}
				if !flush() {
					return
				}
			}
		}
	}
}
