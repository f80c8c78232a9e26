package verify

import (
	"runtime"
	"sync"

	"moc/internal/monitor"
	"moc/internal/mop"
)

// PipelineConfig parameterizes a verification pipeline.
type PipelineConfig struct {
	// NumObjects is the registry size (every stream must agree).
	NumObjects int
	// Level selects the monitor's obligations; use MLinLevel for "mlin"
	// stores, MSCLevel otherwise.
	Level monitor.Level
	// Window is how many released records the incremental checker
	// retains before the garbage collector may retire older ones. Zero
	// means no GC (everything is retained — offline use).
	Window int
	// SlackNs is the merge watermark slack in nanoseconds: how far one
	// stream may trail another (cross-node clock skew, arrival order)
	// without a feed-order report. Zero picks a safe default.
	SlackNs int64
	// Shards is the number of broadcast lanes the records' sequence
	// numbers were composed over (object id mod Shards); 0 or 1 means
	// the single global total order. Every stream must agree.
	Shards int
}

// DefaultSlackNs absorbs cross-node clock skew and stream arrival order;
// each stream is already in response order, since the store stamps Resp
// and calls its RecordSink under one mutex. 25ms is generous headroom
// and delays detection imperceptibly.
const DefaultSlackNs = 25e6

// compactEvery divides the window: GC runs every Window/compactEvery
// released records, so retained state stays within ~(1+1/compactEvery)
// of the window.
const compactEvery = 4

// Pipeline is the shared online-verification path: merge per-node
// streams into global response order, feed the Section 5 monitor and
// the incremental Theorem 7 checker, and garbage-collect the closed
// prefix every window. It is safe for concurrent use; both mocmon
// (records over TCP) and moccheck -stream (records from trace files)
// drive the same code.
type Pipeline struct {
	cfg PipelineConfig

	mu           sync.Mutex
	merger       *Merger
	mon          *monitor.Monitor
	inc          *Incremental
	ring         []int64 // Resp of the last Window released records
	released     int64
	sinceCompact int
	compactions  int64
	heapHW       uint64
}

// NewPipeline creates a pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.SlackNs == 0 {
		cfg.SlackNs = DefaultSlackNs
	}
	p := &Pipeline{
		cfg:    cfg,
		merger: NewMerger(),
		mon:    monitor.NewMonitor(cfg.NumObjects, cfg.Level),
		inc:    NewIncrementalSharded(cfg.NumObjects, cfg.Shards),
	}
	if cfg.Window > 0 {
		p.ring = make([]int64, cfg.Window)
	}
	return p
}

// OpenStream registers or resumes a node stream (Hello) and returns the
// sequence number to Ack.
func (p *Pipeline) OpenStream(node int, gen, helloNext int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.merger.OpenStream(node, gen, helloNext)
}

// Push feeds one batch, advances the merge, and returns the sequence
// number to Ack.
func (p *Pipeline) Push(node int, b Batch) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	next := p.merger.Push(node, b)
	p.drain()
	return next
}

// FinStream ends a node stream cleanly and releases whatever its
// watermark was holding back.
func (p *Pipeline) FinStream(node int, gen int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.merger.FinStream(node, gen)
	p.drain()
}

// Observe bypasses the merger and feeds one record directly, for
// callers that already hold a response-ordered stream (moccheck
// -stream after its own merge sort).
func (p *Pipeline) Observe(rec mop.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.feed(rec)
}

func (p *Pipeline) drain() {
	for _, rec := range p.merger.Release(p.cfg.SlackNs) {
		p.feed(rec)
	}
}

func (p *Pipeline) feed(rec mop.Record) {
	p.mon.Observe(rec)
	p.inc.Observe(rec)
	if len(p.ring) > 0 {
		p.ring[p.released%int64(len(p.ring))] = rec.Resp
		p.released++
		p.sinceCompact++
		if p.sinceCompact >= len(p.ring)/compactEvery && p.released >= int64(len(p.ring)) {
			p.sinceCompact = 0
			p.compact(rec.Resp)
		}
	} else {
		p.released++
	}
}

// compact retires state older than the window: the horizon is the
// response time of the oldest record still inside it, and the version
// floors come from the monitor's per-process high-water marks (sound
// per P5.3 — see Monitor.VersionFloors).
func (p *Pipeline) compact(nowResp int64) {
	horizon := p.ring[p.released%int64(len(p.ring))] // oldest retained
	if horizon > nowResp {
		horizon = nowResp
	}
	floors := p.mon.VersionFloors()
	p.mon.Compact(horizon, floors)
	p.inc.Compact(horizon, floors)
	p.compactions++
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > p.heapHW {
		p.heapHW = ms.HeapAlloc
	}
}

// Finish drains every buffer (Release with all streams fin'd), runs the
// monitor's deferred end-of-run checks, and returns all violations.
//
// The deferred check — every version read was established by some
// writer — only indicts the history when the feed is complete: every
// stream Fin'd cleanly and no daemon was killed mid-generation. On a
// lossy feed the still-unresolved starts are counted as dangling
// (Stats) instead of reported, because their writers' records plausibly
// died with a daemon rather than never existing.
func (p *Pipeline) Finish() []monitor.Violation {
	p.mu.Lock()
	defer p.mu.Unlock()
	clean := p.merger.CleanEnd()
	for _, s := range p.merger.Streams() {
		p.merger.FinStream(s.Node, s.Gen)
	}
	p.drain()
	if !clean {
		p.mon.DropUnresolved()
	}
	vs := p.mon.Finish()
	return append(vs, p.inc.Violations()...)
}

// Violations returns the violations found so far (monitor first, then
// the incremental checker's).
func (p *Pipeline) Violations() []monitor.Violation {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(p.mon.Violations(), p.inc.Violations()...)
}

// Stats is the pipeline's status snapshot.
type Stats struct {
	Released    int64               `json:"released"`
	Buffered    int                 `json:"buffered"`
	Watermark   int64               `json:"watermark"`
	Late        int64               `json:"late"`
	Dups        int64               `json:"dups"`
	Superseded  int64               `json:"supersededGens"`
	Violations  int                 `json:"violations"`
	Compactions int64               `json:"compactions"`
	HeapHW      uint64              `json:"heapHighWaterBytes"`
	Monitor     monitor.MemStats    `json:"monitor"`
	Checker     IncrementalStats    `json:"checker"`
	Streams     []StreamState       `json:"streams"`
	VioSample   []monitor.Violation `json:"-"`
}

// Snapshot returns the pipeline's current stats.
func (p *Pipeline) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	mark, ok := p.merger.Watermark()
	if !ok {
		mark = -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapHW := p.heapHW
	if ms.HeapAlloc > heapHW {
		heapHW = ms.HeapAlloc
	}
	return Stats{
		Released:    p.released,
		Buffered:    p.merger.Buffered(),
		Watermark:   mark,
		Late:        p.merger.Late(),
		Dups:        p.merger.Dups(),
		Superseded:  p.merger.Superseded(),
		Violations:  len(p.mon.Violations()) + len(p.inc.Violations()),
		Compactions: p.compactions,
		HeapHW:      heapHW,
		Monitor:     p.mon.Mem(),
		Checker:     p.inc.Stats(),
		Streams:     p.merger.Streams(),
	}
}
