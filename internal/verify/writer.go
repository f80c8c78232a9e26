package verify

import (
	"net"
	"sync"
	"time"

	"moc/internal/mop"
)

// WriterConfig parameterizes a StreamWriter.
type WriterConfig struct {
	// Addr is the mocmon stream listener address.
	Addr string
	// Node is this daemon's process id.
	Node int
	// Consistency is the store's condition string ("msc"/"mlin"),
	// announced in the Hello so the service checks stream agreement.
	Consistency string
	// Objects is the registry name list, announced in the Hello.
	Objects []string
	// Shards is the store's shard-map spec (core.Store.ShardSpec, ""
	// when unsharded), announced in the Hello.
	Shards string
	// BatchRecords caps one Batch message; a full buffer flushes
	// immediately. Zero means 512.
	BatchRecords int
	// FlushInterval bounds how long a record waits for its batch to
	// fill. Zero means 20ms.
	FlushInterval time.Duration
	// DialTimeout bounds one connection attempt; reconnects back off to
	// one attempt per second. Zero means 2s.
	DialTimeout time.Duration
}

// StreamWriter is the mocd side of the record stream: a RecordSink that
// batches completed records and ships them to the verification service,
// surviving service restarts and its own disconnects.
//
// Records are buffered in arrival order, which is response order (core
// calls its RecordSink in response order), stamped with contiguous
// per-generation sequence numbers at flush time, and retained until the
// service Acks them — a reconnect
// replays everything unacked, and the service drops resend duplicates
// by sequence number. Append never blocks on the network: with the
// service down, records accumulate in memory (the retention buffer is
// the resume guarantee; a daemon outliving its service for long enough
// to matter is a deployment problem the stats make visible).
type StreamWriter struct {
	cfg WriterConfig
	gen int64

	mu       sync.Mutex
	pending  []mop.Record // unsequenced, in response order
	retained []Rec        // sequenced, awaiting Ack
	firstRet int64        // sequence number of retained[0]
	nextSeq  int64
	skipped  int64 // records with no version vectors (never streamed)
	sent     int64
	closed   bool

	kick   chan struct{}
	done   chan struct{}
	exited chan struct{}

	statMu     sync.Mutex
	reconnects int64
}

// NewStreamWriter starts a stream writer; its background loop connects
// (and reconnects) to the service on its own.
func NewStreamWriter(cfg WriterConfig) *StreamWriter {
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = 512
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 20 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	w := &StreamWriter{
		cfg:    cfg,
		gen:    time.Now().UnixNano(),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go w.loop()
	return w
}

// Append is the RecordSink: it enqueues one completed record. Safe for
// concurrent use; never blocks on the network.
func (w *StreamWriter) Append(rec mop.Record) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	if rec.TSStart == nil || rec.TSEnd == nil {
		w.skipped++
		return
	}
	w.pending = append(w.pending, rec)
	if len(w.pending) >= w.cfg.BatchRecords {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
}

// Close flushes what it can, sends the Fin, and stops the loop. The
// store must be drained first so no Append races the final flush.
func (w *StreamWriter) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	<-w.exited
}

// Stats reports (records shipped, records skipped for having no version
// vectors, reconnects).
func (w *StreamWriter) Stats() (sent, skipped, reconnects int64) {
	w.mu.Lock()
	sent, skipped = w.sent, w.skipped
	w.mu.Unlock()
	w.statMu.Lock()
	reconnects = w.reconnects
	w.statMu.Unlock()
	return
}

// seal moves pending into retained, stamped with the next sequence
// numbers.
func (w *StreamWriter) seal() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, rec := range w.pending {
		r, ok := ToWire(rec)
		if !ok {
			w.skipped++
			continue
		}
		w.retained = append(w.retained, r)
		w.nextSeq++
	}
	w.pending = w.pending[:0]
}

// unsent returns the retained suffix from seq on, as one batch.
func (w *StreamWriter) unsent(seq int64) (Batch, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq < w.firstRet {
		seq = w.firstRet
	}
	i := seq - w.firstRet
	if i >= int64(len(w.retained)) {
		return Batch{}, false
	}
	recs := w.retained[i:]
	if len(recs) > 4*w.cfg.BatchRecords {
		recs = recs[:4*w.cfg.BatchRecords]
	}
	out := Batch{FirstSeq: seq, Recs: make([]Rec, len(recs))}
	copy(out.Recs, recs)
	return out, true
}

// ack drops retained records below next.
func (w *StreamWriter) ack(next int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if next <= w.firstRet {
		return
	}
	n := next - w.firstRet
	if n > int64(len(w.retained)) {
		n = int64(len(w.retained))
	}
	w.sent += n
	w.retained = append([]Rec(nil), w.retained[n:]...)
	w.firstRet += n
}

func (w *StreamWriter) loop() {
	defer close(w.exited)
	var conn net.Conn
	var scratch []byte
	sendSeq := int64(0)
	ticker := time.NewTicker(w.cfg.FlushInterval)
	defer ticker.Stop()

	var nextDial time.Time
	connect := func() bool {
		if conn != nil {
			return true
		}
		if time.Now().Before(nextDial) {
			return false
		}
		c, err := net.DialTimeout("tcp", w.cfg.Addr, w.cfg.DialTimeout)
		if err != nil {
			nextDial = time.Now().Add(500 * time.Millisecond)
			return false
		}
		w.mu.Lock()
		hello := Hello{
			Node: w.cfg.Node, Gen: w.gen,
			Consistency: w.cfg.Consistency, Objects: w.cfg.Objects,
			Shards:  w.cfg.Shards,
			NextSeq: w.firstRet,
		}
		w.mu.Unlock()
		if err := WriteMsg(c, hello); err != nil {
			c.Close()
			return false
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		v, err := ReadMsg(c, &scratch)
		c.SetReadDeadline(time.Time{})
		ack, ok := v.(Ack)
		if err != nil || !ok {
			c.Close()
			return false
		}
		w.ack(ack.NextSeq)
		sendSeq = ack.NextSeq
		conn = c
		w.statMu.Lock()
		w.reconnects++
		w.statMu.Unlock()
		return true
	}
	drop := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
	}
	flush := func() {
		w.seal()
		if !connect() {
			return
		}
		for {
			b, ok := w.unsent(sendSeq)
			if !ok {
				return
			}
			if err := WriteMsg(conn, b); err != nil {
				drop()
				return
			}
			sendSeq = b.FirstSeq + int64(len(b.Recs))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			v, err := ReadMsg(conn, &scratch)
			conn.SetReadDeadline(time.Time{})
			ack, okAck := v.(Ack)
			if err != nil || !okAck {
				drop()
				return
			}
			w.ack(ack.NextSeq)
		}
	}

	for {
		select {
		case <-w.done:
			flush()
			if conn != nil {
				w.mu.Lock()
				fin := Fin{NextSeq: w.nextSeq}
				w.mu.Unlock()
				WriteMsg(conn, fin)
				// Give the Fin a moment to land before tearing down.
				conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				ReadMsg(conn, &scratch)
				conn.Close()
			}
			return
		case <-ticker.C:
			flush()
		case <-w.kick:
			flush()
		}
	}
}
