package abcast

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"moc/internal/network"
	"moc/internal/network/testutil"
)

// The Batcher must itself satisfy the atomic-broadcast contract over
// every inner broadcaster: coalescing and re-expansion may not disturb
// the total order, gap-free renumbering, or exactly-once delivery.
func TestBatcherConformance(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (Broadcaster, error)
	}{
		{"sequencer", func() (Broadcaster, error) {
			return NewSequencer(SequencerConfig{Procs: 4, Seed: 11, MaxDelay: 2 * time.Millisecond})
		}},
		{"lamport", func() (Broadcaster, error) {
			return NewLamport(LamportConfig{Procs: 4, Seed: 12, MaxDelay: 2 * time.Millisecond})
		}},
		{"token", func() (Broadcaster, error) {
			return NewToken(TokenConfig{Procs: 4, Seed: 13, MaxDelay: 2 * time.Millisecond})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner, err := tc.mk()
			if err != nil {
				t.Fatalf("constructor: %v", err)
			}
			b := NewBatcher(inner, BatchConfig{Size: 8, Window: 500 * time.Microsecond})
			defer b.Close()
			runConformance(t, b, 4, 25)
		})
	}
}

// scriptedInner is a Broadcaster whose total order the test drives by
// hand: every Broadcast is handed to the test on sent, and deliver puts
// one delivery on every process's stream. It makes the flush policy
// observable without timing: what reached the inner broadcaster, as
// what, and released by which delivery.
type scriptedInner struct {
	sent chan Delivery
	subs Subscribers
	seq  int64
}

func newScriptedInner(procs int) *scriptedInner {
	return &scriptedInner{sent: make(chan Delivery, 16), subs: NewSubscribers(procs)}
}

func (s *scriptedInner) Broadcast(from int, payload any, bytes int) error {
	s.sent <- Delivery{From: from, Payload: payload}
	return nil
}
func (s *scriptedInner) Subscribe(p int, fn func(Delivery)) { s.subs.Subscribe(p, fn) }
func (s *scriptedInner) MessageCost() (int64, int64)        { return 0, 0 }
func (s *scriptedInner) NetStats() network.Stats            { return network.Stats{} }
func (s *scriptedInner) Close()                             {}

// deliver orders d next at every process, running each subscriber
// inline on the caller, as a member loop would.
func (s *scriptedInner) deliver(d Delivery) {
	d.Seq = s.seq
	s.seq++
	for p := range s.subs {
		s.subs.Deliver(p, d)
	}
}

// nextSent waits for the Batcher's next inner Broadcast.
func (s *scriptedInner) nextSent(t *testing.T) Delivery {
	t.Helper()
	select {
	case d := <-s.sent:
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("the Batcher flushed nothing")
		return Delivery{}
	}
}

// wantBatch asserts that d is a BatchMsg carrying exactly the payloads.
func wantBatch(t *testing.T, d Delivery, payloads ...string) {
	t.Helper()
	batch, ok := d.Payload.(BatchMsg)
	if !ok || len(batch.Items) != len(payloads) {
		t.Fatalf("flushed %+v, want one BatchMsg of %v", d.Payload, payloads)
	}
	for i, it := range batch.Items {
		if it.Payload != payloads[i] {
			t.Fatalf("batch item %d = %v, want %v", i, it.Payload, payloads[i])
		}
	}
}

// mustBroadcast submits the payloads from process 0, in order.
func mustBroadcast(t *testing.T, b *Batcher, payloads ...string) {
	t.Helper()
	for _, m := range payloads {
		if err := b.Broadcast(0, m, 4); err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
	}
}

// Items submitted while a flush is in flight must wait for it and then
// travel as one BatchMsg, released by that flush coming back in its
// issuer's own delivery stream — the window never elapses here.
func TestBatcherCoalesces(t *testing.T) {
	inner := newScriptedInner(2)
	b := NewBatcher(inner, BatchConfig{Size: 8, Window: time.Hour})
	defer b.Close()
	var own testutil.Collector[Delivery]
	b.Subscribe(0, own.Add)
	mustBroadcast(t, b, "m0")
	first := inner.nextSent(t)
	if first.Payload != "m0" || first.From != 0 {
		t.Fatalf("idle flush = %+v, want the raw m0", first)
	}
	mustBroadcast(t, b, "m1", "m2", "m3")
	select {
	case d := <-inner.sent:
		t.Fatalf("flushed %+v while m0 was still in flight", d.Payload)
	default:
	}
	// Another process's delivery is not the Batcher's clock.
	inner.deliver(Delivery{From: 1, Payload: "foreign"})
	if ds := own.Wait(t, time.Second, 1); len(ds) != 1 || ds[0].Payload != "foreign" {
		t.Fatalf("deliveries = %+v", ds)
	}
	select {
	case d := <-inner.sent:
		t.Fatalf("a foreign delivery released %+v", d.Payload)
	default:
	}

	inner.deliver(first)
	second := inner.nextSent(t)
	wantBatch(t, second, "m1", "m2", "m3")
	inner.deliver(second)
	got := own.Wait(t, time.Second, 5)
	if t.Failed() {
		t.FailNow()
	}
	for i, want := range []string{"m0", "m1", "m2", "m3"} {
		d := got[i+1]
		if d.Seq != int64(i+1) || d.Payload != want || d.From != 0 {
			t.Fatalf("delivery %d = %+v, want %s", i+1, d, want)
		}
	}
	flushes, batches, items := b.BatchStats()
	if flushes != 2 || batches != 1 || items != 3 {
		t.Fatalf("BatchStats = (%d, %d, %d), want (2, 1, 3)", flushes, batches, items)
	}
}

// Subscribe expands and renumbers on the inner broadcaster's member
// loop: by the time an inner delivery returns, the subscriber has seen
// every item it carries, and subscribing started no goroutine.
func TestBatcherSubscribeExpandsInline(t *testing.T) {
	inner := newScriptedInner(2)
	b := NewBatcher(inner, BatchConfig{Size: 8, Window: time.Hour})
	defer b.Close()
	before := runtime.NumGoroutine()
	var got []Delivery
	b.Subscribe(1, func(d Delivery) { got = append(got, d) })
	inner.deliver(Delivery{From: 0, Payload: "solo"})
	if want := []Delivery{{Seq: 0, From: 0, Payload: "solo"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a raw inner delivery: %+v, want %+v", got, want)
	}
	inner.deliver(Delivery{From: 0, Payload: BatchMsg{Items: []BatchItem{{From: 1, Payload: "a"}, {From: 0, Payload: "b"}}}})
	want := []Delivery{{Seq: 0, From: 0, Payload: "solo"}, {Seq: 1, From: 1, Payload: "a"}, {Seq: 2, From: 0, Payload: "b"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after a batch: %+v, want %+v", got, want)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Subscribe and two deliveries, %d before", after, before)
	}
}

// An issuer whose flushes never come back — it crashed, or nobody reads
// its delivery stream — has no clock: its updates must still all go
// out, by Size or after Window, and the loss may cost one window only.
func TestBatcherLostOwnDelivery(t *testing.T) {
	inner := newScriptedInner(2)
	b := NewBatcher(inner, BatchConfig{Size: 3, Window: time.Hour})
	defer b.Close()
	// Only m4 below waits out a window, so only it gets a short one.
	setWindow := func(d time.Duration) {
		b.mu.Lock()
		b.cfg.Window = d
		b.mu.Unlock()
	}
	mustBroadcast(t, b, "m0")
	if d := inner.nextSent(t); d.Payload != "m0" {
		t.Fatalf("idle flush = %+v, want the raw m0", d)
	}
	// m0 never comes back. A full batch does not wait for it.
	mustBroadcast(t, b, "m1", "m2", "m3")
	wantBatch(t, inner.nextSent(t), "m1", "m2", "m3")
	// A partial batch waits out the window.
	setWindow(time.Millisecond)
	mustBroadcast(t, b, "m4")
	last := inner.nextSent(t)
	if last.Payload != "m4" {
		t.Fatalf("window flush = %+v, want the raw m4", last)
	}
	// The window wrote both lost flushes off: once m4 is back the
	// pipeline counts as empty and m5 goes out at once.
	setWindow(time.Hour)
	inner.deliver(last)
	var own testutil.Collector[Delivery]
	b.Subscribe(0, own.Add)
	if ds := own.Wait(t, time.Second, 1); len(ds) != 1 || ds[0].Payload != "m4" {
		t.Fatalf("deliveries = %+v", ds)
	}
	mustBroadcast(t, b, "m5")
	if d := inner.nextSent(t); d.Payload != "m5" {
		t.Fatalf("flush after the write-off = %+v, want the raw m5", d)
	}
}

// A lone update must reach every process as the raw payload (no
// BatchMsg wrapper) without the window elapsing, and must not count as
// a multi-item batch.
func TestBatcherLoneNeedsNoWindow(t *testing.T) {
	inner, err := NewSequencer(SequencerConfig{Procs: 2, Seed: 22})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	b := NewBatcher(inner, BatchConfig{Size: 64, Window: time.Hour})
	defer b.Close()

	if err := b.Broadcast(1, "solo", 4); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	var own testutil.Collector[Delivery]
	b.Subscribe(0, own.Add)
	got := own.Wait(t, 10*time.Second, 1, testutil.Source("batcher transport", b.NetStats))
	if len(got) != 1 || got[0].Payload != "solo" || got[0].From != 1 || got[0].Seq != 0 {
		t.Fatalf("deliveries = %+v", got)
	}
	flushes, batches, items := b.BatchStats()
	if flushes != 1 || batches != 0 || items != 0 {
		t.Fatalf("BatchStats = (%d, %d, %d), want (1, 0, 0)", flushes, batches, items)
	}
}

// hammerMsg identifies one update of the hammer: its submitting
// goroutine and that goroutine's running count.
type hammerMsg struct{ worker, n int }

// Concurrent submitters, every process subscribed from the start, and
// no usable window: every flush is clocked by an own delivery or by
// Size, over all three orderers on FIFO links. Each stream must be gap-free and
// all streams identical. With one issuing process — a daemon's Batcher
// carries its own updates only — each submitter's updates must also
// arrive in submission order. With every process issuing through one
// Batcher (the embedded store) consecutive batches may be headed by
// different processes, which no orderer keeps in order, exactly as it
// keeps no order between unbatched broadcasts of different processes.
func TestBatcherHammer(t *testing.T) {
	const procs, workers, perWorker = 3, 12, 40
	const total = workers * perWorker
	orderers := []struct {
		name string
		mk   func() (Broadcaster, error)
	}{
		{"sequencer", func() (Broadcaster, error) {
			return NewSequencer(SequencerConfig{Procs: procs, Seed: 31, MaxDelay: time.Millisecond, FD: fdForTest()})
		}},
		{"lamport", func() (Broadcaster, error) {
			return NewLamport(LamportConfig{Procs: procs, Seed: 32, MaxDelay: time.Millisecond})
		}},
		{"token", func() (Broadcaster, error) {
			return NewToken(TokenConfig{Procs: procs, Seed: 33, MaxDelay: time.Millisecond})
		}},
	}
	for _, tc := range orderers {
		for _, issuers := range []int{1, procs} {
			t.Run(fmt.Sprintf("%s/issuers=%d", tc.name, issuers), func(t *testing.T) {
				inner, err := tc.mk()
				if err != nil {
					t.Fatalf("constructor: %v", err)
				}
				b := NewBatcher(inner, BatchConfig{Size: 8, Window: time.Hour})
				defer b.Close()

				collectors := make([]testutil.Collector[Delivery], procs)
				for p := range collectors {
					b.Subscribe(p, collectors[p].Add)
				}
				var writers sync.WaitGroup
				for w := 0; w < workers; w++ {
					writers.Add(1)
					go func(w int) {
						defer writers.Done()
						for n := 0; n < perWorker; n++ {
							if err := b.Broadcast(w%issuers, hammerMsg{w, n}, 8); err != nil {
								t.Errorf("Broadcast: %v", err)
								return
							}
						}
					}(w)
				}
				writers.Wait()
				orders := make([][]Delivery, procs)
				for p := range collectors {
					orders[p] = collectors[p].Wait(t, 30*time.Second, total,
						testutil.Source(fmt.Sprintf("proc %d transport", p), b.NetStats))
				}
				if t.Failed() {
					return
				}

				byProc := make(map[int][]Delivery, procs)
				for p, ds := range orders {
					byProc[p] = ds
					next := make([]int, workers)
					for i, d := range ds {
						m := d.Payload.(hammerMsg)
						if d.From != m.worker%issuers {
							t.Fatalf("proc %d delivery %d = %+v: wrong sender", p, i, d)
						}
						if issuers == 1 && m.n != next[m.worker] {
							t.Fatalf("proc %d delivery %d = %+v, want update %d of worker %d", p, i, d, next[m.worker], m.worker)
						}
						next[m.worker]++
					}
				}
				checkAgreement(t, byProc)
			})
		}
	}
}

// Coalescing must survive a coordinator crash: the sequencer fails over
// under the Batcher, flushes that were in flight across the crash may
// never come back to their issuer, and every update is still delivered
// exactly once in one order at the live processes.
func TestBatcherSequencerFailover(t *testing.T) {
	inner, err := NewSequencer(SequencerConfig{
		Procs: 4, Seed: 34, MaxDelay: time.Millisecond,
		Faults: crashSchedule(0), FD: fdForTest(),
	})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	b := NewBatcher(inner, BatchConfig{Size: 4, Window: 2 * time.Millisecond})
	defer b.Close()
	runCoordinatorCrash(t, b, false)
	if inner.Failovers() == 0 {
		t.Fatal("leader crashed but no failover was performed")
	}
}

// Close must flush a queued partial batch before shutting down, so a
// graceful stop loses no accepted updates, and must reject later
// broadcasts.
func TestBatcherCloseFlushesAndRejects(t *testing.T) {
	inner, err := NewSequencer(SequencerConfig{Procs: 2, Seed: 23})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	b := NewBatcher(inner, BatchConfig{Size: 64, Window: time.Hour})
	var own testutil.Collector[Delivery]
	b.Subscribe(0, own.Add)
	if err := b.Broadcast(0, "pending", 7); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	// The flush happens before the inner broadcaster closes, but
	// delivery through the inner protocol races Close; accept either the
	// delivery or a clean stop, requiring only that Broadcast-after-Close
	// fails. Close has stopped the member loops when it returns, so
	// nothing arrives after.
	b.Close()
	if n := own.Len(); n > 1 {
		t.Fatalf("%d deliveries of one update", n)
	} else if n == 1 {
		if d := own.Wait(t, 0, 1)[0]; d.Payload != "pending" {
			t.Fatalf("delivery = %+v", d)
		}
	}
	b.Close()
	if err := b.Broadcast(0, "late", 4); err != ErrClosed {
		t.Fatalf("Broadcast after Close = %v, want ErrClosed", err)
	}
}

// Size and window defaults: size below 1 clamps to 1 (pure
// passthrough), and size-based batching without a window gets the
// default so items cannot wait forever.
func TestBatcherConfigNormalization(t *testing.T) {
	inner, err := NewSequencer(SequencerConfig{Procs: 2, Seed: 24})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	b := NewBatcher(inner, BatchConfig{Size: 0})
	defer b.Close()
	if b.cfg.Size != 1 {
		t.Fatalf("Size = %d, want 1", b.cfg.Size)
	}
	if err := b.Broadcast(0, "x", 1); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	var own testutil.Collector[Delivery]
	b.Subscribe(1, own.Add)
	got := own.Wait(t, 10*time.Second, 1, testutil.Source("batcher transport", b.NetStats))
	if len(got) != 1 || got[0].Payload != "x" {
		t.Fatalf("deliveries = %+v", got)
	}

	inner2, err := NewSequencer(SequencerConfig{Procs: 2, Seed: 25})
	if err != nil {
		t.Fatalf("NewSequencer: %v", err)
	}
	b2 := NewBatcher(inner2, BatchConfig{Size: 16})
	defer b2.Close()
	if b2.cfg.Window <= 0 {
		t.Fatalf("Window = %v, want a positive default", b2.cfg.Window)
	}
}

// Subscribe racing Close must neither panic nor hang, and a Subscribe
// that lands after Close gets nothing and starts no goroutine that
// Close would have had to wait for.
func TestBatcherCloseRacesDeliveries(t *testing.T) {
	const procs = 4
	for round := 0; round < 200; round++ {
		b := NewBatcher(newScriptedInner(procs), BatchConfig{Size: 8, Window: time.Hour})
		collectors := make([]testutil.Collector[Delivery], procs)
		var wg sync.WaitGroup
		for p := 0; p < procs-1; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				b.Subscribe(p, collectors[p].Add)
			}(p)
		}
		b.Close()
		wg.Wait()
		b.Subscribe(procs-1, collectors[procs-1].Add)
		if n := subscribeGoroutines(); n > 0 {
			t.Fatalf("round %d: %d goroutines started by Subscribe outlive Close", round, n)
		}
		for p := range collectors {
			if n := collectors[p].Len(); n != 0 {
				t.Fatalf("round %d: process %d got %d deliveries from a closed Batcher", round, p, n)
			}
		}
	}
}

// createdBySubscribe matches a goroutine dump's "created by" line for a
// goroutine that a Subscribe method started.
var createdBySubscribe = regexp.MustCompile(`created by \S+\.Subscribe\b`)

// subscribeGoroutines counts the live goroutines that a Subscribe
// method started. Other tests' goroutines may still be winding down, so
// a bare runtime.NumGoroutine would not do.
func subscribeGoroutines() int {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) { // truncated
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return len(createdBySubscribe.FindAll(buf[:n], -1))
}
