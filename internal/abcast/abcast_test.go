package abcast

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"moc/internal/network/testutil"
)

// streamed is a Broadcaster with the Deliveries channel adapter, as
// every broadcaster in this package has.
type streamed interface {
	Broadcaster
	Deliveries(p int) <-chan Delivery
}

// runConformance drives any Broadcaster through the atomic-broadcast
// contract: with `procs` processes each broadcasting `perProc` payloads
// concurrently, every process must deliver all procs*perProc payloads,
// exactly once, gap-free, and in the same total order. Even processes
// take their deliveries through Subscribe, set before the first
// broadcast; odd ones through Deliveries, asked for only after the
// last, so their early deliveries are held and replayed.
func runConformance(t *testing.T, b streamed, procs, perProc int) {
	t.Helper()
	total := procs * perProc

	orders := make([][]Delivery, procs)
	subscribed := make([]*collector, procs)
	for p := 0; p < procs; p += 2 {
		subscribed[p] = newCollector(total)
		b.Subscribe(p, subscribed[p].add)
	}

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				payload := fmt.Sprintf("p%d-m%d", p, i)
				if err := b.Broadcast(p, payload, len(payload)); err != nil {
					t.Errorf("Broadcast(%d): %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	var collect sync.WaitGroup
	for p := 0; p < procs; p++ {
		collect.Add(1)
		go func(p int) {
			defer collect.Done()
			src := testutil.Source(fmt.Sprintf("proc %d transport", p), b.NetStats)
			if c := subscribed[p]; c != nil {
				orders[p] = c.wait(t, 30*time.Second, src)
				return
			}
			orders[p] = testutil.Drain(t, 30*time.Second, b.Deliveries(p), total, src)
		}(p)
	}
	collect.Wait()
	if t.Failed() {
		return
	}

	for p := 0; p < procs; p++ {
		seen := make(map[any]bool, total)
		for i, d := range orders[p] {
			if d.Seq != int64(i) {
				t.Fatalf("proc %d delivery %d: seq %d (gap or reorder)", p, i, d.Seq)
			}
			if seen[d.Payload] {
				t.Fatalf("proc %d: duplicate delivery %v", p, d.Payload)
			}
			seen[d.Payload] = true
		}
	}
	for p := 1; p < procs; p++ {
		for i := range orders[0] {
			if orders[0][i].Payload != orders[p][i].Payload || orders[0][i].From != orders[p][i].From {
				t.Fatalf("total order violated at position %d: proc0=%v proc%d=%v",
					i, orders[0][i].Payload, p, orders[p][i].Payload)
			}
		}
	}
}

func TestSequencerConformance(t *testing.T) {
	b, err := NewSequencer(SequencerConfig{Procs: 4, Seed: 1, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 4, 20)
}

func TestSequencerConformanceNoDelay(t *testing.T) {
	b, err := NewSequencer(SequencerConfig{Procs: 3, Seed: 2})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 3, 50)
}

func TestLamportConformance(t *testing.T) {
	b, err := NewLamport(LamportConfig{Procs: 4, Seed: 3, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewLamport: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 4, 20)
}

func TestLamportConformanceNoDelay(t *testing.T) {
	b, err := NewLamport(LamportConfig{Procs: 3, Seed: 4})
	if err != nil {
		t.Fatalf("NewLamport: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 3, 50)
}

func TestLamportSingleProcess(t *testing.T) {
	b, err := NewLamport(LamportConfig{Procs: 1, Seed: 5})
	if err != nil {
		t.Fatalf("NewLamport: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 1, 10)
}

func TestSequencerSingleProcess(t *testing.T) {
	b, err := NewSequencer(SequencerConfig{Procs: 1, Seed: 6})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 1, 10)
}

func TestBroadcastValidation(t *testing.T) {
	for _, mk := range []func() (Broadcaster, error){
		func() (Broadcaster, error) { return NewSequencer(SequencerConfig{Procs: 2, Seed: 7}) },
		func() (Broadcaster, error) { return NewLamport(LamportConfig{Procs: 2, Seed: 7}) },
	} {
		b, err := mk()
		if err != nil {
			t.Fatalf("constructor: %v", err)
		}
		if err := b.Broadcast(5, "x", 1); err == nil {
			t.Error("out-of-range sender accepted")
		}
		b.Close()
		if err := b.Broadcast(0, "x", 1); err != ErrClosed {
			t.Errorf("after close: err = %v, want ErrClosed", err)
		}
		b.Close() // idempotent
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewSequencer(SequencerConfig{Procs: 0}); err == nil {
		t.Fatal("zero-proc sequencer accepted")
	}
	if _, err := NewLamport(LamportConfig{Procs: 0}); err == nil {
		t.Fatal("zero-proc lamport accepted")
	}
}

func TestMessageCostSequencerVsLamport(t *testing.T) {
	seq, err := NewSequencer(SequencerConfig{Procs: 4, Seed: 8})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	defer seq.Close()
	lam, err := NewLamport(LamportConfig{Procs: 4, Seed: 8})
	if err != nil {
		t.Fatalf("NewLamport: %v", err)
	}
	defer lam.Close()

	runConformance(t, seq, 4, 10)
	runConformance(t, lam, 4, 10)

	seqMsgs, _ := seq.MessageCost()
	lamMsgs, _ := lam.MessageCost()
	if seqMsgs == 0 || lamMsgs == 0 {
		t.Fatal("message costs not recorded")
	}
	// Lamport's all-ack pattern costs strictly more messages than the
	// sequencer's request + n pattern for n=4.
	if lamMsgs <= seqMsgs {
		t.Fatalf("expected Lamport (%d msgs) to cost more than sequencer (%d msgs)", lamMsgs, seqMsgs)
	}
}

func TestDeliveryBuffer(t *testing.T) {
	b := newDeliveryBuffer()
	if got := b.add(Delivery{Seq: 2}); got != nil {
		t.Fatalf("out-of-order add returned %v", got)
	}
	if got := b.add(Delivery{Seq: 1}); got != nil {
		t.Fatalf("still-gapped add returned %v", got)
	}
	got := b.add(Delivery{Seq: 0})
	if len(got) != 3 || got[0].Seq != 0 || got[1].Seq != 1 || got[2].Seq != 2 {
		t.Fatalf("flush = %v", got)
	}
	if next := b.add(Delivery{Seq: 3}); len(next) != 1 || next[0].Seq != 3 {
		t.Fatalf("subsequent add = %v", next)
	}
}

// TestDeliveryBufferAllocs pins the member loops' in-order path: an add
// that releases the next delivery reuses the buffer's result slice and
// allocates nothing. Allocation counts are pinned without -race (make
// codec-gate).
func TestDeliveryBufferAllocs(t *testing.T) {
	b := newDeliveryBuffer()
	if n := testing.AllocsPerRun(100, func() {
		if got := b.add(Delivery{Seq: b.next}); len(got) != 1 {
			t.Fatalf("in-order add released %d deliveries, want 1", len(got))
		}
	}); n != 0 {
		t.Fatalf("%v allocations per in-order add, want 0", n)
	}
}

func TestTokenConformance(t *testing.T) {
	b, err := NewToken(TokenConfig{Procs: 4, Seed: 9, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewToken: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 4, 20)
}

func TestTokenConformanceNoDelay(t *testing.T) {
	b, err := NewToken(TokenConfig{Procs: 3, Seed: 10})
	if err != nil {
		t.Fatalf("NewToken: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 3, 50)
}

func TestTokenSingleProcess(t *testing.T) {
	b, err := NewToken(TokenConfig{Procs: 1, Seed: 11})
	if err != nil {
		t.Fatalf("NewToken: %v", err)
	}
	defer b.Close()
	runConformance(t, b, 1, 10)
}

func TestTokenValidation(t *testing.T) {
	if _, err := NewToken(TokenConfig{Procs: 0}); err == nil {
		t.Fatal("zero-proc token ring accepted")
	}
	b, err := NewToken(TokenConfig{Procs: 2, Seed: 12})
	if err != nil {
		t.Fatalf("NewToken: %v", err)
	}
	if err := b.Broadcast(5, "x", 1); err == nil {
		t.Error("out-of-range sender accepted")
	}
	b.Close()
	if err := b.Broadcast(0, "x", 1); err != ErrClosed {
		t.Errorf("after close: err = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// collector is a subscriber that records a process's deliveries until
// it has want of them.
type collector struct {
	mu   sync.Mutex
	got  []Delivery
	want int
	full chan struct{}
}

func newCollector(want int) *collector {
	return &collector{want: want, full: make(chan struct{})}
}

func (c *collector) add(d Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, d)
	if len(c.got) == c.want {
		close(c.full)
	}
}

// wait returns the deliveries once there are want of them, failing t
// (via Errorf) and dumping the sources after timeout.
func (c *collector) wait(t *testing.T, timeout time.Duration, sources ...testutil.StatsSource) []Delivery {
	t.Helper()
	select {
	case <-c.full:
	case <-time.After(timeout):
		c.mu.Lock()
		t.Errorf("timed out after %v with %d/%d deliveries", timeout, len(c.got), c.want)
		c.mu.Unlock()
		testutil.DumpStats(t, sources...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Delivery(nil), c.got...)
}

// A delivery that reaches a process before its subscriber is held, and
// Subscribe replays it in order ahead of every later one, while the
// member loop keeps delivering. The callbacks never overlap: the plain
// counter below is written by both the replay and the member loop,
// which the race detector would report if they ran at once.
func TestSubscribeReplaysHeldDeliveries(t *testing.T) {
	const early, late = 50, 500
	for round := 0; round < 20; round++ {
		subs := NewSubscribers(2)
		for i := 0; i < early; i++ {
			subs.Deliver(0, Delivery{Seq: int64(i)})
		}
		loop := make(chan struct{})
		go func() { // process 0's member loop
			defer close(loop)
			for i := early; i < early+late; i++ {
				subs.Deliver(0, Delivery{Seq: int64(i)})
			}
		}()
		var next int64
		subs.Subscribe(0, func(d Delivery) {
			if d.Seq != next {
				t.Errorf("round %d: delivery %d arrived as number %d", round, d.Seq, next)
			}
			next++
		})
		<-loop
		if next != early+late {
			t.Fatalf("round %d: %d of %d deliveries", round, next, early+late)
		}
	}
}

// A second subscriber for one process is a bug in the caller.
func TestSubscribeTwicePanics(t *testing.T) {
	subs := NewSubscribers(1)
	subs.Subscribe(0, func(Delivery) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Subscribe did not panic")
		}
	}()
	subs.Subscribe(0, func(Delivery) {})
}
