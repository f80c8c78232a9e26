package verify

import (
	"container/heap"

	"moc/internal/mop"
)

// Merger folds per-node record streams into one global response-order
// stream. Each node's records arrive response-ordered (core stamps Resp
// and calls RecordSink under one mutex); records are buffered in a
// per-node min-heap keyed by response time and released only up to the
// global watermark:
//
//	release point = min over live streams of (max Resp seen − slack)
//
// The slack is headroom for a stream that is not in order (a trace from
// another writer, say); a record arriving below the release point
// anyway is still released — immediately, out of global order — and the
// downstream monitor reports the feed-order break rather than the
// merger hiding it. A stream stops holding the watermark once it Fins
// (clean daemon drain) or is superseded by a newer generation of the
// same node (the daemon was killed and restarted).
type Merger struct {
	streams map[int]*stream
	late    int64
	lastOut int64
	unclean int64 // generations superseded without a Fin (daemon killed)
}

type stream struct {
	node    int
	gen     int64
	nextSeq int64 // next sequence number the merge wants
	buf     recHeap
	mark    int64 // max Resp seen on this stream
	fin     bool
	dups    int64
}

// NewMerger creates an empty merger.
func NewMerger() *Merger {
	return &Merger{streams: make(map[int]*stream), lastOut: -1 << 62}
}

// OpenStream registers (or resumes) node's stream for the given
// generation and returns the sequence number the merge wants next — the
// Ack for the stream's Hello. Reconnecting with the generation the
// merger already knows resumes mid-stream; a new generation supersedes
// the old one (its buffered records stay merged, it just stops holding
// the watermark) and starts at helloNext.
func (m *Merger) OpenStream(node int, gen, helloNext int64) int64 {
	s := m.streams[node]
	if s != nil && s.gen == gen {
		return s.nextSeq
	}
	if s != nil {
		// Superseded generation: whatever it buffered is still real;
		// only its watermark hold ends. Merge the remnant into the new
		// stream's buffer. Without a Fin first, the old generation's
		// tail is lost (the daemon was killed) — remember that, so the
		// end-of-run checks know the feed was lossy.
		if !s.fin {
			m.unclean++
		}
		s.fin = true
	}
	ns := &stream{node: node, gen: gen, nextSeq: helloNext, mark: -1 << 62}
	if s != nil {
		ns.buf = s.buf
		if s.mark > ns.mark {
			ns.mark = s.mark
		}
		ns.dups = s.dups
	}
	m.streams[node] = ns
	return ns.nextSeq
}

// Push feeds one batch from node's current stream and returns the next
// sequence number wanted (the Ack). Records below the wanted sequence
// are duplicates of a resend and dropped; a gap above it (which the
// writer-side protocol never produces) is accepted and counted as lost
// ground by the caller's Ack semantics.
func (m *Merger) Push(node int, b Batch) int64 {
	s := m.streams[node]
	if s == nil {
		return 0
	}
	for i, r := range b.Recs {
		seq := b.FirstSeq + int64(i)
		if seq < s.nextSeq {
			s.dups++
			continue
		}
		s.nextSeq = seq + 1
		rec := r.FromWire()
		heap.Push(&s.buf, rec)
		if rec.Resp > s.mark {
			s.mark = rec.Resp
		}
	}
	return s.nextSeq
}

// FinStream marks node's stream cleanly ended; it stops holding the
// release point back.
func (m *Merger) FinStream(node int, gen int64) {
	if s := m.streams[node]; s != nil && s.gen == gen {
		s.fin = true
	}
}

// Release pops every buffered record at or below the release point, in
// global response order. slack is the inversion allowance in clock
// units (nanoseconds).
func (m *Merger) Release(slack int64) []mop.Record {
	point := int64(1<<62 - 1)
	live := false
	for _, s := range m.streams {
		if s.fin {
			continue
		}
		live = true
		if s.mark == -1<<62 {
			return nil // a live stream has shown nothing yet
		}
		if s.mark-slack < point {
			point = s.mark - slack
		}
	}
	if !live && len(m.streams) == 0 {
		return nil
	}
	// With every stream fin'd nothing holds the release point (it stays
	// at +inf) and the buffers drain completely.
	var out []mop.Record
	for {
		var best *stream
		for _, s := range m.streams {
			if s.buf.Len() == 0 || s.buf.recs[0].Resp > point {
				continue
			}
			if best == nil || s.buf.recs[0].Resp < best.buf.recs[0].Resp {
				best = s
			}
		}
		if best == nil {
			return out
		}
		rec := heap.Pop(&best.buf).(mop.Record)
		if rec.Resp < m.lastOut {
			m.late++
		} else {
			m.lastOut = rec.Resp
		}
		out = append(out, rec)
	}
}

// Buffered returns the number of records awaiting release.
func (m *Merger) Buffered() int {
	n := 0
	for _, s := range m.streams {
		n += s.buf.Len()
	}
	return n
}

// Watermark returns the current release point with zero slack, or
// false when no live stream has reported yet.
func (m *Merger) Watermark() (int64, bool) {
	point := int64(1<<62 - 1)
	any := false
	for _, s := range m.streams {
		if s.fin {
			continue
		}
		if s.mark == -1<<62 {
			return 0, false
		}
		any = true
		if s.mark < point {
			point = s.mark
		}
	}
	return point, any
}

// CleanEnd reports whether the feed is known complete: every stream
// Fin'd on its own and no generation was superseded without one. Only
// then can an unresolved start be blamed on the history rather than on
// records the feed lost.
func (m *Merger) CleanEnd() bool {
	if m.unclean > 0 {
		return false
	}
	for _, s := range m.streams {
		if !s.fin {
			return false
		}
	}
	return true
}

// Superseded returns how many stream generations were replaced by a
// newer one without a clean Fin — one per daemon death observed through
// the stream protocol (the restarted daemon Hellos with a fresh gen).
func (m *Merger) Superseded() int64 { return m.unclean }

// Late returns how many records were released below an earlier release
// point (inversions larger than the slack); Dups the resend duplicates
// dropped.
func (m *Merger) Late() int64 { return m.late }

// Dups returns the resend duplicates dropped across all streams.
func (m *Merger) Dups() int64 {
	var n int64
	for _, s := range m.streams {
		n += s.dups
	}
	return n
}

// StreamState describes one stream for the status RPC.
type StreamState struct {
	Node     int   `json:"node"`
	Gen      int64 `json:"gen"`
	NextSeq  int64 `json:"nextSeq"`
	Buffered int   `json:"buffered"`
	Mark     int64 `json:"watermark"`
	Fin      bool  `json:"fin"`
}

// Streams reports the per-node stream states.
func (m *Merger) Streams() []StreamState {
	out := make([]StreamState, 0, len(m.streams))
	for _, s := range m.streams {
		mark := s.mark
		if mark == -1<<62 {
			mark = -1
		}
		out = append(out, StreamState{
			Node: s.node, Gen: s.gen, NextSeq: s.nextSeq,
			Buffered: s.buf.Len(), Mark: mark, Fin: s.fin,
		})
	}
	return out
}

// recHeap is a min-heap of records by response time.
type recHeap struct {
	recs []mop.Record
}

func (h recHeap) Len() int           { return len(h.recs) }
func (h recHeap) Less(i, j int) bool { return h.recs[i].Resp < h.recs[j].Resp }
func (h recHeap) Swap(i, j int)      { h.recs[i], h.recs[j] = h.recs[j], h.recs[i] }
func (h *recHeap) Push(x any)        { h.recs = append(h.recs, x.(mop.Record)) }
func (h *recHeap) Pop() any {
	old := h.recs
	n := len(old)
	rec := old[n-1]
	old[n-1] = mop.Record{}
	h.recs = old[:n-1]
	return rec
}
