package abcast

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/network"
)

// BatchItem is one update coalesced into a BatchMsg: the original
// sender, its payload, and its accounted wire size.
type BatchItem struct {
	From    int
	Payload any
	Bytes   int
}

// BatchMsg carries N ordered updates in one broadcast frame. It is the
// group-commit unit: updates submitted while an earlier flush is still
// being ordered share a single pass through the total-order protocol,
// and every receiver expands the batch back into N consecutive
// deliveries. Because the items occupy a
// contiguous run of the (renumbered) delivery order at every process,
// the protocols above see exactly the history an unbatched run could
// have produced, and the exact checkers are untouched.
type BatchMsg struct {
	Items []BatchItem
}

// BatchConfig tunes the Batcher. Size is the maximum number of updates
// per batch (a full batch flushes immediately). Window is the longest a
// queued update waits: the Batcher clocks itself off its own deliveries
// (see Batcher), so the window only expires when such a delivery never
// arrives — the issuer crashed, or nobody subscribed to its delivery
// stream. Size <= 1 with Window <= 0 means no batching — callers should
// skip the Batcher entirely in that case (core does).
type BatchConfig struct {
	Window time.Duration
	Size   int
}

// defaultBatchWindow bounds queueing latency when a caller enables
// size-based batching without choosing a window.
const defaultBatchWindow = 200 * time.Microsecond

// Batcher wraps any Broadcaster with submit-side coalescing and
// delivery-side expansion. The flush rule is self-clocked group commit:
// a Broadcast that finds none of this Batcher's flushes in the inner
// total-order pipeline goes out at once; while a flush is in flight,
// later Broadcasts queue and travel as a single BatchMsg when that
// flush comes back in its issuer's own delivery stream, or as soon as
// Size of them have queued. Batch size therefore follows arrival rate ×
// round time — 1 when idle, toward Size under load — with no timer on
// the common path; Window only bounds the wait when the own delivery is
// lost. Each process's stream is expanded and renumbered on the inner
// member loop, so the items are contiguous and gap-free. That is a
// deterministic function of the inner total order, so every process
// derives the same order — the Batcher is itself a conforming Broadcaster.
type Batcher struct {
	inner Broadcaster
	cfg   BatchConfig

	mu     sync.Mutex
	queue  []BatchItem
	timer  *time.Timer // the Window fallback, created on first use and reused
	armed  bool
	closed bool

	// inflight counts this Batcher's flushes not yet back in their
	// issuer's delivery stream. Flushes raise it under mu; deliveries
	// lower it without the lock, so a delivery never waits on a flush.
	inflight atomic.Int64
	// kick wakes the flusher: inflight dropped to zero, or a Broadcast
	// found it there.
	kick chan struct{}

	stop chan struct{}
	wg   sync.WaitGroup

	flushes      atomic.Int64
	batches      atomic.Int64
	batchedItems atomic.Int64
}

var _ Broadcaster = (*Batcher)(nil)

// BatchMeter is implemented by broadcasters that coalesce updates: the
// Batcher, and compositions that sum their Batchers' meters.
type BatchMeter interface {
	// BatchStats returns (flushes, multi-item batches, items carried in
	// those batches).
	BatchStats() (flushes, batches, batched int64)
}

// NewBatcher wraps inner. A Size below 1 is treated as 1; a
// non-positive Window with Size > 1 gets a small default so queued
// updates cannot wait unboundedly.
func NewBatcher(inner Broadcaster, cfg BatchConfig) *Batcher {
	if cfg.Size < 1 {
		cfg.Size = 1
	}
	if cfg.Size > 1 && cfg.Window <= 0 {
		cfg.Window = defaultBatchWindow
	}
	b := &Batcher{
		inner: inner,
		cfg:   cfg,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	b.wg.Add(1)
	go b.flusher()
	return b
}

// Broadcast queues the payload. A full batch is flushed synchronously
// (errors propagate to this caller). A partial batch goes out as soon
// as the pipeline holds no flush of this Batcher: now, through the
// flusher, when it is already empty; otherwise when the flush in flight
// comes back, and after Window at the latest.
func (b *Batcher) Broadcast(from int, payload any, bytes int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	b.queue = append(b.queue, BatchItem{From: from, Payload: payload, Bytes: bytes})
	if len(b.queue) >= b.cfg.Size {
		return b.flushLocked()
	}
	if b.inflight.Load() == 0 {
		b.wake()
	} else {
		b.armLocked()
	}
	return nil
}

// armLocked starts the Window fallback for the queued batch unless it is
// already running. Caller holds b.mu.
func (b *Batcher) armLocked() {
	if b.armed {
		return
	}
	b.armed = true
	if b.timer == nil {
		b.timer = time.AfterFunc(b.cfg.Window, b.windowFlush)
	} else {
		b.timer.Reset(b.cfg.Window)
	}
}

// wake tells the flusher the pipeline is empty. One pending wake-up is
// enough: the flusher looks at the queue itself.
func (b *Batcher) wake() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// landed records that one of this Batcher's flushes came back to its
// issuer. The count never goes below zero: windowFlush may already have
// written the flush off.
func (b *Batcher) landed() {
	for {
		n := b.inflight.Load()
		if n <= 0 {
			return
		}
		if b.inflight.CompareAndSwap(n, n-1) {
			if n == 1 {
				b.wake()
			}
			return
		}
	}
}

// flusher sends partial batches once the pipeline is empty. It is its
// own goroutine so that a delivery stream never stalls behind a send.
// The delivery that emptied the pipeline also made submitters runnable,
// so the flusher yields until a yield adds nothing to the queue: they
// share this flush instead of each waiting a round behind it, which is
// what lets a saturated pipeline still fill batches to Size.
func (b *Batcher) flusher() {
	defer b.wg.Done()
	for {
		select {
		case <-b.stop:
			return
		case <-b.kick:
		}
		for seen, done := 0, false; !done; {
			runtime.Gosched()
			seen, done = b.flushSettled(seen)
		}
	}
}

// flushSettled flushes the queue if the pipeline is still empty and the
// queue still holds exactly the seen items of the flusher's last look.
// It returns the queue length, and whether this wake-up is dealt with:
// the queue was flushed or is empty, or a flush went out meanwhile and
// its own delivery will wake the flusher again. A queue that grew on
// two looks running is being fed steadily, so from then on Window
// bounds the wait for it to settle or fill; a flush that goes out on
// the second look never touches the timer. The flusher's error has no
// waiting caller; the inner broadcaster's own failure handling (or the
// protocol layer's close path) surfaces the condition.
func (b *Batcher) flushSettled(seen int) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.queue)
	if b.closed || n == 0 || b.inflight.Load() != 0 {
		return n, true
	}
	if n != seen {
		if seen > 0 {
			b.armLocked()
		}
		return n, false
	}
	_ = b.flushLocked()
	return n, true
}

// windowFlush is the fallback for an own delivery that never comes: the
// issuer crashed, or its process has no subscriber. It writes the
// flushes in flight off, so a loss costs one window, not one on every
// later batch. Like the flusher's, its error has no waiting caller.
func (b *Batcher) windowFlush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || !b.armed {
		return
	}
	b.inflight.Store(0)
	_ = b.flushLocked()
}

// flushLocked broadcasts the queued items as one frame. A single-item
// queue travels as the raw payload — byte-identical to an unbatched
// broadcast. Caller holds b.mu, which serializes flushes and so
// preserves submission FIFO through the inner broadcaster.
func (b *Batcher) flushLocked() error {
	if b.armed {
		b.timer.Stop()
		b.armed = false
	}
	if len(b.queue) == 0 {
		return nil
	}
	items := b.queue
	b.queue = nil
	b.flushes.Add(1)
	b.inflight.Add(1)
	if len(items) == 1 {
		it := items[0]
		return b.inner.Broadcast(it.From, it.Payload, it.Bytes)
	}
	b.batches.Add(1)
	b.batchedItems.Add(int64(len(items)))
	total := 0
	for _, it := range items {
		total += it.Bytes
	}
	return b.inner.Broadcast(items[0].From, BatchMsg{Items: items}, total)
}

// Subscribe implements Broadcaster: fn gets p's expanded, renumbered
// stream. Its callback on the inner broadcaster counts p's own flushes
// back in, then expands each BatchMsg into one delivery per item and
// renumbers inline; seq is a pure function of the shared inner order,
// so every process assigns identical sequence numbers.
func (b *Batcher) Subscribe(p int, fn func(Delivery)) {
	var seq int64
	emit := func(from int, payload any) {
		fn(Delivery{Seq: seq, From: from, Payload: payload})
		seq++
	}
	b.inner.Subscribe(p, func(d Delivery) {
		if d.From == p {
			b.landed()
		}
		if batch, ok := d.Payload.(BatchMsg); ok {
			for _, it := range batch.Items {
				emit(it.From, it.Payload)
			}
			return
		}
		emit(d.From, d.Payload)
	})
}

// MessageCost reports the inner broadcaster's traffic.
func (b *Batcher) MessageCost() (int64, int64) { return b.inner.MessageCost() }

// NetStats reports the inner broadcaster's transport counters.
func (b *Batcher) NetStats() network.Stats { return b.inner.NetStats() }

// BatchStats returns (flushes, multi-item batches, items carried in
// those batches) — the submit-side coalescing meters for experiments.
func (b *Batcher) BatchStats() (flushes, batches, batched int64) {
	return b.flushes.Load(), b.batches.Load(), b.batchedItems.Load()
}

// Close flushes any queued partial batch, stops the flusher, and
// closes the inner broadcaster.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	_ = b.flushLocked()
	b.mu.Unlock()
	close(b.stop)
	b.inner.Close()
	b.wg.Wait()
}
