package main

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"moc/internal/core"
	"moc/internal/mocrpc"
	"moc/internal/monitor"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/verify"
)

// The traced run rebuilds a workload's shape inside this process and
// drives it serially with one client, so every span of an operation lies
// inside the client's span in time:
//
//	client (around mocrpc.Client.Exec or Process.Exec)
//	  ⊃ core (the record's Inv..Resp, through RecordSink)
//	    ⊃ link.<channel> (each Send/Broadcast through a wrapped Factory)
//
// Spans are recorded from the benchmark's own files only; spans inside
// mocd are a later change. The timed runs never use these wrappers.

// span is one timed interval. Times are ns since the traced run's t0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Op     int    `json:"op"`     // -1: background, outside any operation
	Layer  string `json:"layer"`  // "client", "core" or "link"
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects link spans from whatever goroutine sends.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	// links are kept in memory until the run ends.
	links []span
}

func (t *tracer) add(name string, start time.Time) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.links = append(t.links, span{Layer: "link", Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end})
	t.mu.Unlock()
}

// wrap returns a factory whose links time every Send and Broadcast.
func (t *tracer) wrap(inner network.Factory) network.Factory {
	return func(name string, cfg network.Config) (network.Link, error) {
		l, err := inner(name, cfg)
		if err != nil {
			return nil, err
		}
		return &tracedLink{Link: l, name: "link." + name, t: t}, nil
	}
}

type tracedLink struct {
	network.Link
	name string
	t    *tracer
}

func (l *tracedLink) Send(from, to int, kind string, payload any, bytes int) error {
	start := time.Now()
	err := l.Link.Send(from, to, kind, payload, bytes)
	l.t.add(l.name, start)
	return err
}

func (l *tracedLink) Broadcast(from int, kind string, payload any, bytes int) error {
	start := time.Now()
	err := l.Link.Broadcast(from, kind, payload, bytes)
	l.t.add(l.name, start)
	return err
}

// assemble nests the three span sources by time containment and numbers
// them. clients must be in issue order and non-overlapping; cores[i] is
// the record of operation i (zero Start/End when missing).
func assemble(clients, cores, links []span) []span {
	out := make([]span, 0, len(clients)+len(cores)+len(links))
	next := 1
	coreID := make([]int, len(clients))
	for i := range clients {
		c := clients[i]
		c.ID, c.Op = next, i
		next++
		out = append(out, c)
		if i < len(cores) && cores[i].End > cores[i].Start &&
			cores[i].Start >= c.Start && cores[i].End <= c.End {
			k := cores[i]
			k.ID, k.Parent, k.Op = next, c.ID, i
			coreID[i] = next
			next++
			out = append(out, k)
		}
	}
	for _, l := range links {
		l.ID, l.Op = next, -1
		next++
		// The operation whose client span holds the send's start, if any.
		i := sort.Search(len(clients), func(i int) bool { return clients[i].End >= l.Start })
		if i < len(clients) && clients[i].Start <= l.Start && coreID[i] != 0 &&
			cores[i].Start <= l.Start && l.Start <= cores[i].End {
			l.Parent, l.Op = coreID[i], i
		}
		out = append(out, l)
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// it that its children cover (children clipped to the parent, overlaps
// counted once).
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for id, s := range byID {
		self[id] = s.End - s.Start - covered(s, kids[id])
	}
	return self
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// budget is the per-stage decomposition of the serial client latency.
type budget struct {
	ops          int
	clientUs     float64 // mean client span
	clientSelfUs float64
	coreSelfUs   float64
	linkUs       float64 // mean time inside Send/Broadcast on the path
	coreQueryUs  float64 // mean core span of queries
	coreUpdateUs float64
	backgroundUs float64 // link time outside any operation, per operation
	stages       []stage // sums to clientUs
}

// stageBudget turns assembled spans into the budget. isQuery[i] says
// whether operation i was a query.
func stageBudget(spans []span, isQuery []bool) budget {
	self := selfTimes(spans)
	var b budget
	var clientNs, clientSelf, coreSelf, linkNs, background int64
	var qNs, uNs int64
	var qN, uN int
	coreKids := make(map[int][]span) // core id → its link spans
	cores := make(map[int]span)
	for _, s := range spans {
		switch {
		case s.Layer == "client":
			b.ops++
			clientNs += s.End - s.Start
			clientSelf += self[s.ID]
		case s.Layer == "core":
			cores[s.ID] = s
			coreSelf += self[s.ID]
			if isQuery[s.Op] {
				qNs += s.End - s.Start
				qN++
			} else {
				uNs += s.End - s.Start
				uN++
			}
		case s.Parent == 0:
			background += s.End - s.Start
		default:
			coreKids[s.Parent] = append(coreKids[s.Parent], s)
		}
	}
	// A core span's link time is the union of its sends; split it among
	// the channels by their raw durations so the stages still add up.
	byChannel := make(map[string]float64)
	for id, kids := range coreKids {
		union := covered(cores[id], kids)
		linkNs += union
		var raw int64
		for _, k := range kids {
			raw += k.End - k.Start
		}
		for _, k := range kids {
			if raw > 0 {
				byChannel[k.Name] += float64(union) * float64(k.End-k.Start) / float64(raw)
			}
		}
	}
	if b.ops == 0 {
		return b
	}
	per := func(ns int64) float64 { return float64(ns) / float64(b.ops) / 1e3 }
	b.clientUs, b.clientSelfUs, b.coreSelfUs = per(clientNs), per(clientSelf), per(coreSelf)
	b.linkUs, b.backgroundUs = per(linkNs), per(background)
	if qN > 0 {
		b.coreQueryUs = float64(qNs) / float64(qN) / 1e3
	}
	if uN > 0 {
		b.coreUpdateUs = float64(uNs) / float64(uN) / 1e3
	}
	add := func(layer string, us float64) {
		share := 0.0
		if b.clientUs > 0 {
			share = us / b.clientUs
		}
		b.stages = append(b.stages, stage{Layer: layer, SelfUs: us, Share: share})
	}
	add("client", b.clientSelfUs)
	add("core", b.coreSelfUs)
	channels := make([]string, 0, len(byChannel))
	for name := range byChannel {
		channels = append(channels, name)
	}
	sort.Strings(channels)
	for _, name := range channels {
		add(name, byChannel[name]/float64(b.ops)/1e3)
	}
	return b
}

// tracedOps is how many operations the serial traced run records, after
// tracedWarm unrecorded ones. A lone update on a batching shape waits out
// the batch window's timer (about a millisecond here), so the run also
// stops at tracedLimit.
const (
	tracedOps   = 5000
	tracedWarm  = 200
	tracedLimit = 2500 * time.Millisecond
)

// serialRun drives the workload's shape serially in this process. With
// traced set, links are wrapped and records collected, and the spans are
// returned; without, only the median client latency is measured — the
// difference between the two medians is the tracing overhead.
func serialRun(sp spec, seed int64, ops int, traced bool) (spans []span, isQueryOp []bool, medianClientUs float64, err error) {
	t0 := time.Now()
	tr := &tracer{t0: t0}
	var (
		recMu sync.Mutex
		recs  []mop.Record
		pipe  *verify.Pipeline
	)
	if sp.monitored {
		pipe = verify.NewPipeline(verify.PipelineConfig{NumObjects: sp.objects, Level: monitor.MSCLevel, Window: gateWindow})
	}
	var sink func(mop.Record)
	if traced || pipe != nil {
		sink = func(rec mop.Record) {
			if pipe != nil {
				pipe.Observe(rec)
			}
			if traced {
				recMu.Lock()
				recs = append(recs, rec)
				recMu.Unlock()
			}
		}
	}
	var wrap func(network.Factory) network.Factory
	if traced {
		wrap = tr.wrap
	}
	// One lane: the serial client never has two operations outstanding.
	shape := sp
	shape.inflight = 1
	em, err := newEmbedded(shape, seed, t0, wrap, sink)
	if err != nil {
		return nil, nil, 0, err
	}
	defer em.close()

	// exec runs one planned operation at issuer i, through the front door
	// the workload uses.
	var exec func(i int, op *planned, off int64) error
	if sp.embedded {
		procs := make([]*core.Process, issuers)
		for i := range procs {
			if procs[i], err = em.store.Process(i); err != nil {
				return nil, nil, 0, err
			}
		}
		exec = func(i int, op *planned, off int64) error {
			_, err := procs[i].Exec(op.procedure(off), core.ExecOptions{Level: op.execLevel()})
			return err
		}
	} else {
		clients := make([]*mocrpc.Client, issuers)
		for i := 0; i < replicas; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, nil, 0, err
			}
			srv := mocrpc.Serve(ln, em.store, i, nil)
			defer srv.Close()
			if i < issuers {
				if clients[i], err = mocrpc.Dial(srv.Addr(), 5*time.Second); err != nil {
					return nil, nil, 0, err
				}
				defer clients[i].Close()
				clients[i].SetCallTimeout(callTimeout)
			}
		}
		vals := make([]int64, 0, 8)
		exec = func(i int, op *planned, off int64) error {
			vals = vals[:0]
			for _, v := range op.vals {
				vals = append(vals, v+off)
			}
			_, err := clients[i].Exec(op.kind, op.names, vals, op.level)
			return err
		}
	}

	plans := sp.plans(seed)
	clients := make([]span, 0, ops)
	for n := -tracedWarm; n < ops && (n < 100 || time.Since(t0) < tracedLimit); n++ {
		i := (n + tracedWarm) % issuers
		op, off := plans[i].next()
		start := time.Since(t0).Nanoseconds()
		if err := exec(i, op, off); err != nil {
			return nil, nil, 0, fmt.Errorf("benchmark: traced %s: %w", sp.name, err)
		}
		end := time.Since(t0).Nanoseconds()
		if n >= 0 {
			clients = append(clients, span{Layer: "client", Name: "client", Start: start, End: end})
			isQueryOp = append(isQueryOp, op.query)
		}
	}
	durs := make([]int64, len(clients))
	for i, c := range clients {
		durs[i] = c.End - c.Start
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	medianClientUs = float64(percentile(durs, 0.5)) / 1e3
	if !traced {
		return nil, nil, medianClientUs, nil
	}

	// Match records to operations: the run is serial, so the record whose
	// interval lies inside a client span is that operation's.
	recMu.Lock()
	sort.Slice(recs, func(a, b int) bool { return recs[a].Inv < recs[b].Inv })
	cores := make([]span, len(clients))
	k := 0
	for i, c := range clients {
		for k < len(recs) && recs[k].Inv < c.Start {
			k++
		}
		if k < len(recs) && recs[k].Resp <= c.End {
			cores[i] = span{Layer: "core", Name: "core", Start: recs[k].Inv, End: recs[k].Resp}
		}
	}
	recMu.Unlock()
	tr.mu.Lock()
	links := append([]span(nil), tr.links...)
	tr.mu.Unlock()
	return assemble(clients, cores, links), isQueryOp, medianClientUs, nil
}
