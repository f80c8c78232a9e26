// Package abcast provides atomic (total-order) broadcast, the
// synchronization primitive Section 5 of Mittal & Garg (1998) builds
// both protocols on: "We use atomic broadcast to achieve our objective
// ... atomic broadcast ensures that all processes apply all update
// m-operations in the same order."
//
// Three from-scratch implementations are provided over the simulated
// asynchronous network:
//
//   - Sequencer: a fixed sequencer assigns consecutive sequence numbers;
//     receivers deliver in sequence order through a hold-back buffer, so
//     arbitrary network reordering is tolerated. With FDConfig it fails
//     over to a new leader when the current one crashes (failover.go);
//     it is the only implementation that survives process crashes.
//
//   - Lamport: the classical Lamport-clock total-order broadcast. Every
//     message is timestamped and acknowledged by all processes; a message
//     is delivered once it heads the timestamp-ordered queue and every
//     process has been heard from past its timestamp. Requires FIFO
//     links, which the network provides in FIFO mode.
//
//   - Token: a token circulates around a ring of the processes, and the
//     holder stamps its queued broadcasts with the next sequence numbers.
//
// All three satisfy Broadcaster and the shared conformance suite: every
// broadcast is delivered exactly once at every process, in one global
// total order, gap-free.
//
// Delivery is by callback: each protocol's member loop calls process
// p's one subscriber inline, in delivery order, so nothing queues
// between the total order and §5's A2 apply. A callback runs on the
// broadcaster's own goroutine, so it must never wait on that
// broadcaster's progress; a slow one holds up p's member loop and,
// behind it, p's transport inbox.
package abcast

import (
	"errors"
	"fmt"
	"sync"

	"moc/internal/network"
)

// Delivery is one totally-ordered delivery.
type Delivery struct {
	// Seq is the global delivery sequence number, starting at 0 and
	// gap-free at every process.
	Seq int64
	// From is the broadcasting process.
	From int
	// Payload is the broadcast payload.
	Payload any
	// Shards, when non-nil, lists the shards this delivery occupies in a
	// sharded group's composed order (internal/shard). Nil for plain
	// single-lane broadcasters. A sharded Seq is composite (apply-clock ×
	// shard count + shard) — globally unique and per-shard monotone, but
	// not gap-free per process, so consumers must not treat a smaller Seq
	// as already-applied. The slice may be shared with other deliveries:
	// consumers must not modify it.
	Shards []int
}

// Broadcaster is an atomic broadcast service for a fixed group of
// processes 0..n-1.
type Broadcaster interface {
	// Broadcast submits payload from process `from` for totally-ordered
	// delivery at every process (including the sender). bytes is the
	// accounted wire size of the payload.
	Broadcast(from int, payload any, bytes int) error
	// Subscribe sets fn, before p's first Broadcast, as process p's one
	// subscriber: it gets p's deliveries in global total order, one call
	// at a time (see the package comment). Deliveries that came before
	// Subscribe are handed to fn first, in order.
	Subscribe(p int, fn func(Delivery))
	// MessageCost returns (messages, bytes) of network traffic incurred
	// so far, for the experiment harness.
	MessageCost() (int64, int64)
	// NetStats returns the underlying transport's full counters,
	// including fault-injection drop/duplicate/retransmit counts.
	NetStats() network.Stats
	// Close shuts the service down and waits for its goroutines.
	Close()
}

// ErrClosed is returned by Broadcast after Close.
var ErrClosed = errors.New("abcast: closed")

// Resumer is implemented by broadcasters that can fast-forward one
// member's delivery stream to a later sequence number. A process that
// restarts and adopts a peer checkpoint covering deliveries [0, next)
// calls Resume(p, next) so the member stops waiting for orders that
// were applied before the crash and — over a real transport — will
// never be re-sent.
type Resumer interface {
	Resume(p int, next int64)
}

// deliveryBuffer reorders arrivals into gap-free sequence order: a
// hold-back queue keyed by sequence number.
type deliveryBuffer struct {
	next    int64
	pending map[int64]Delivery
	out     []Delivery // ready's result, reused by the next call
}

func newDeliveryBuffer() *deliveryBuffer {
	return &deliveryBuffer{pending: make(map[int64]Delivery)}
}

// fastForward advances the buffer to expect sequence next, discarding
// held-back deliveries below it, and returns any now-ready suffix. A
// restarted process whose state was adopted from a peer checkpoint uses
// this: orders below the checkpoint were already applied by the
// checkpoint's donor and will never be re-sent over a TCP link, so
// waiting for them would hold the buffer back forever. No-op when next
// is not ahead of the buffer.
func (b *deliveryBuffer) fastForward(next int64) []Delivery {
	if next <= b.next {
		return nil
	}
	for seq := range b.pending {
		if seq < next {
			delete(b.pending, seq)
		}
	}
	b.next = next
	return b.ready()
}

// add inserts d and returns every delivery that is now ready in order.
func (b *deliveryBuffer) add(d Delivery) []Delivery {
	b.pending[d.Seq] = d
	return b.ready()
}

// ready removes and returns the gap-free run of held deliveries from
// next on, or nil when there is none. The result lives in a slice the
// buffer keeps, so it is valid only until the next add or fastForward:
// the member loops hand it to Subscribers.Deliver before either, and
// Deliver copies what it holds.
func (b *deliveryBuffer) ready() []Delivery {
	clear(b.out) // drop the last result's payloads
	b.out = b.out[:0]
	for {
		d, ok := b.pending[b.next]
		if !ok {
			break
		}
		delete(b.pending, b.next)
		b.out = append(b.out, d)
		b.next++
	}
	if len(b.out) == 0 {
		return nil
	}
	return b.out
}

// Subscribers holds one subscriber per process for a broadcaster's
// member loops. Deliver calls p's subscriber inline; deliveries that
// come before it are held, and Subscribe replays them in order, on its
// caller and outside the lock, before it installs the subscriber.
type Subscribers []subscriber

type subscriber struct {
	mu   sync.Mutex
	fn   func(Delivery) // installed once nothing is held
	held []Delivery
	set  bool
}

// NewSubscribers returns an empty table for processes 0..n-1.
func NewSubscribers(n int) Subscribers { return make(Subscribers, n) }

// Subscribe implements Broadcaster.Subscribe. A second subscriber for p
// is a bug in the caller, and panics.
func (t Subscribers) Subscribe(p int, fn func(Delivery)) {
	sub := &t[p]
	sub.mu.Lock()
	if sub.set {
		sub.mu.Unlock()
		panic(fmt.Sprintf("abcast: process %d subscribed twice", p))
	}
	sub.set = true
	for len(sub.held) > 0 {
		held := sub.held
		sub.held = nil
		sub.mu.Unlock()
		for _, d := range held {
			fn(d)
		}
		sub.mu.Lock()
	}
	sub.fn = fn
	sub.mu.Unlock()
}

// Deliver hands ds, in order, to p's subscriber, or holds them until
// there is one. Only p's member loop calls it.
func (t Subscribers) Deliver(p int, ds ...Delivery) {
	sub := &t[p]
	sub.mu.Lock()
	fn := sub.fn
	if fn == nil {
		sub.held = append(sub.held, ds...)
	}
	sub.mu.Unlock()
	for i := 0; fn != nil && i < len(ds); i++ {
		fn(ds[i])
	}
}

// Streams adapts Subscribe to channels for every broadcaster's
// Deliveries: p's first Get subscribes a forwarder into a channel of
// 1024 slots, so its reader may fall that far behind before the member
// loop waits for room (until stop); later Gets return the same channel.
type Streams struct {
	mu  sync.Mutex
	chs map[int]chan Delivery
}

// Get returns p's delivery channel, subscribing on first use.
func (s *Streams) Get(p int, subscribe func(int, func(Delivery)), stop <-chan struct{}) <-chan Delivery {
	s.mu.Lock()
	ch, ok := s.chs[p]
	if !ok {
		if s.chs == nil {
			s.chs = make(map[int]chan Delivery)
		}
		ch = make(chan Delivery, 1024)
		s.chs[p] = ch
	}
	s.mu.Unlock()
	if !ok {
		subscribe(p, func(d Delivery) {
			select {
			case ch <- d:
			case <-stop:
			}
		})
	}
	return ch
}

// members is the delivery side the three orderers share: member loop p
// hands its deliveries to subs, and stop ends the loops.
type members struct {
	subs    Subscribers
	streams Streams
	stop    chan struct{}
}

// Subscribe implements Broadcaster.
func (m *members) Subscribe(p int, fn func(Delivery)) { m.subs.Subscribe(p, fn) }

// Deliveries returns p's delivery stream as a channel (see Streams).
func (m *members) Deliveries(p int) <-chan Delivery { return m.streams.Get(p, m.Subscribe, m.stop) }
