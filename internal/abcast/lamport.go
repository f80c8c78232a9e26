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
// Delivery waits on every process: Lamport assumes no crashes.
type Lamport struct {
	members // Subscribe and stop
	n       int
	net     network.Link
	closed  atomic.Bool
	wg      sync.WaitGroup
	headerB int
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
}

// LamportConfig parameterizes NewLamport.
type LamportConfig struct {
	Procs              int
	Seed               int64
	MinDelay, MaxDelay time.Duration
	// Faults optionally injects delivery faults. The reliable layer then
	// provides the FIFO, exactly-once links the algorithm requires.
	Faults *network.Faults
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
		members: members{subs: NewSubscribers(cfg.Procs), stop: make(chan struct{})},
		headerB: 16,
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

	flush := func() {
		for queue.Len() > 0 {
			head := queue.head()
			stable := true
			for q := 0; q < l.n; q++ {
				if q == head.From {
					continue // the sender's own data message is in hand
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
				return
			}
			it := heap.Pop(&queue).(lamportItem)
			l.subs.Deliver(p, Delivery{Seq: delivered, From: it.From, Payload: it.Payload})
			delivered++
		}
	}

	for {
		select {
		case <-l.stop:
			return
		case msg := <-l.net.Recv(p):
			switch m := msg.Payload.(type) {
			case lamportSubmit:
				if !submit(m) {
					return
				}
				flush()
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
				ack := lamportAck{TS: clock, From: p}
				for q := 0; q < l.n; q++ {
					if q == p {
						continue
					}
					if err := l.net.Send(p, q, "abcast.ack", ack, l.headerB); err != nil {
						return
					}
				}
				flush()
			case lamportAck:
				if m.TS > clock {
					clock = m.TS
				}
				clock++
				if lastHeard[m.From] < m.TS {
					lastHeard[m.From] = m.TS
				}
				flush()
			}
		}
	}
}
