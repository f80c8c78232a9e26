package abcast

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/network"
)

// Token is a token-ring atomic broadcast: a single token circulates
// around the processes; only the token holder assigns sequence numbers.
// A process wanting to broadcast queues the payload locally; when the
// token arrives, it stamps every queued payload with consecutive
// sequence numbers (continuing from the token's counter), disseminates
// them to all members, and passes the token on.
//
// Compared to the fixed sequencer there is no distinguished process and
// ordering load rotates; compared to Lamport there are no per-message
// acknowledgements. The cost is token-rotation latency: a broadcast
// waits on average half a ring rotation before it is ordered.
//
// The ring assumes processes do not crash (crash tolerance is the
// sequencer's, failover.go): a crashed holder takes the token with it.
type Token struct {
	members // Subscribe and stop
	n       int
	net     network.Link
	pending []*tokenQueue
	closed  atomic.Bool
	wg      sync.WaitGroup
	headerB int
}

var _ Broadcaster = (*Token)(nil)

type tokenQueue struct {
	mu   sync.Mutex
	msgs []tokenSubmission
}

// tokenSubmission is one queued broadcast.
type tokenSubmission struct {
	Payload any
	Bytes   int
}

// tokenMsg is the circulating token, carrying the next sequence number.
// (Wire payloads carry exported fields so a serializing transport can
// marshal them.)
type tokenMsg struct {
	Next int64
}

// tokenOrder is one assigned broadcast.
type tokenOrder struct {
	Seq     int64
	From    int
	Payload any
}

// TokenConfig parameterizes NewToken.
type TokenConfig struct {
	Procs              int
	Seed               int64
	MinDelay, MaxDelay time.Duration
	// Faults optionally injects delivery faults; the reliable layer keeps
	// the circulating token from being lost to drops.
	Faults *network.Faults
	// Links optionally supplies the transport (channel name Channel);
	// nil uses the simulated network stack.
	Links network.Factory
	// Channel overrides the transport channel name (default "abcast");
	// sharded stores run one lane per shard on distinct channels.
	Channel string
}

// NewToken starts a token-ring atomic broadcast group. Process 0 holds
// the token initially.
func NewToken(cfg TokenConfig) (*Token, error) {
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
		Faults:   cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	t := &Token{
		n:       cfg.Procs,
		net:     net,
		members: members{subs: NewSubscribers(cfg.Procs), stop: make(chan struct{})},
		pending: make([]*tokenQueue, cfg.Procs),
		headerB: 16,
	}
	for i := range t.pending {
		t.pending[i] = &tokenQueue{}
	}
	for p := 0; p < cfg.Procs; p++ {
		t.wg.Add(1)
		go t.runMember(p)
	}
	// Inject the token at process 0 (self-send so the member loop owns
	// all token handling).
	if err := t.net.Send(0, 0, "abcast.token", tokenMsg{Next: 0}, t.headerB); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// Broadcast implements Broadcaster: enqueue locally; the token orders it.
func (t *Token) Broadcast(from int, payload any, bytes int) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if from < 0 || from >= t.n {
		return fmt.Errorf("abcast: broadcast from invalid process %d", from)
	}
	q := t.pending[from]
	q.mu.Lock()
	q.msgs = append(q.msgs, tokenSubmission{Payload: payload, Bytes: bytes})
	q.mu.Unlock()
	return nil
}

// MessageCost implements Broadcaster.
func (t *Token) MessageCost() (int64, int64) {
	st := t.net.Stats()
	return st.Messages, st.Bytes
}

// NetStats implements Broadcaster.
func (t *Token) NetStats() network.Stats { return t.net.Stats() }

// Close implements Broadcaster.
func (t *Token) Close() {
	if t.closed.Swap(true) {
		return
	}
	close(t.stop)
	t.net.Close()
	t.wg.Wait()
}

// runMember is the member loop of process p.
func (t *Token) runMember(p int) {
	defer t.wg.Done()
	buf := newDeliveryBuffer()
	for {
		select {
		case <-t.stop:
			return
		case msg := <-t.net.Recv(p):
			switch m := msg.Payload.(type) {
			case tokenMsg:
				next := m.Next
				q := t.pending[p]
				q.mu.Lock()
				drained := q.msgs
				q.msgs = nil
				q.mu.Unlock()
				for _, sub := range drained {
					ord := tokenOrder{Seq: next, From: p, Payload: sub.Payload}
					next++
					for dst := 0; dst < t.n; dst++ {
						if err := t.net.Send(p, dst, "abcast.ord", ord, sub.Bytes+t.headerB); err != nil {
							return
						}
					}
				}
				// Pass the token along the ring. An idle ring (nothing
				// drained) waits a beat first so a zero-delay network is
				// not spun at full speed by token circulation alone.
				if len(drained) == 0 {
					timer := time.NewTimer(200 * time.Microsecond)
					select {
					case <-timer.C:
					case <-t.stop:
						timer.Stop()
						return
					}
				}
				successor := (p + 1) % t.n
				if err := t.net.Send(p, successor, "abcast.token", tokenMsg{Next: next}, t.headerB); err != nil {
					return
				}
			case tokenOrder:
				t.subs.Deliver(p, buf.add(Delivery{Seq: m.Seq, From: m.From, Payload: m.Payload})...)
			}
		}
	}
}
