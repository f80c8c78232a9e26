package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"moc/internal/core"
	"moc/internal/mocrpc"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/transport"
	"moc/internal/verify"
	"moc/internal/wire"
)

// env is what every run of one invocation shares.
type env struct {
	root   string // the moc checkout
	outDir string // benchmark/out
	bins   binaries
}

// runOpts parameterizes one timed run.
type runOpts struct {
	seed   int64
	window time.Duration
	// setupReps is how many times the whole set-up (plan, launch, dial,
	// warm-up) is performed; all but the last are torn down again and
	// setup_s is the median, so one slow fork does not set the number.
	setupReps int
	// warmDiv divides the warm-up count (-smoke).
	warmDiv int
	// onWindow, when set, runs beside the window as it opens. Tests use
	// it to kill a daemon mid-run.
	onWindow func(c *cluster)
}

// issuerStats is what one closed loop counted.
type issuerStats struct {
	samples       []sample
	attempted     int
	failed        int
	queries       int
	updates       int
	certifiedDown int // queries answered with is_consistent=false
}

func (a *issuerStats) add(b issuerStats) {
	a.samples = append(a.samples, b.samples...)
	a.attempted += b.attempted
	a.failed += b.failed
	a.queries += b.queries
	a.updates += b.updates
	a.certifiedDown += b.certifiedDown
}

// timedRun is the raw outcome of one workload's set-up and window.
type timedRun struct {
	issuerStats   // warm-up and window together; samples are window only
	windowNs      int64
	setupS        []float64
	gate          gateResult
	net           network.Stats
	flushes       int64 // abcast.Batcher flushes; 0 when unbatched
	batches       int64
	batched       int64
	daemonCPU     time.Duration // during the window
	loadgenCPU    time.Duration // during the window
	rssMB         float64
	mon           verify.Stats // monitored only
	lagMs         float64      // monitored only
	monVerified   bool
	watchdogFired bool
	notes         []string
}

// loop is one closed-loop issuer: it sends the next planned operation
// only after the previous one was answered (rpc) or admitted (embedded,
// where up to inflight operations are outstanding).
type loop interface {
	// run issues operations until stop reports true. With record set,
	// every completion is filed as a sample timed against origin.
	run(stop func(issued int) bool, record bool, origin time.Time)
	stats() issuerStats
}

// rpcLoop drives one mocrpc connection.
type rpcLoop struct {
	cl   *mocrpc.Client
	plan *plan
	vals []int64
	st   issuerStats
}

func (l *rpcLoop) stats() issuerStats { return l.st }

func (l *rpcLoop) run(stop func(int) bool, record bool, origin time.Time) {
	for i := 0; !stop(i); i++ {
		op, off := l.plan.next()
		var vals []int64
		if !op.query {
			vals = l.vals[:0]
			for _, v := range op.vals {
				vals = append(vals, v+off)
			}
		}
		t0 := time.Now()
		resp, err := l.cl.Exec(op.kind, op.names, vals, op.level)
		end := time.Now()
		l.st.attempted++
		if err != nil {
			l.st.failed++
			// A dead daemon refuses at once; do not spin on it.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if op.query {
			l.st.queries++
			if resp.IsConsistent != nil && !*resp.IsConsistent {
				l.st.certifiedDown++
			}
		} else {
			l.st.updates++
		}
		if record {
			l.st.samples = append(l.st.samples, sample{end: end.Sub(origin).Nanoseconds(), lat: end.Sub(t0).Nanoseconds(), class: op.class})
		}
	}
}

// embedLoop drives one process of an in-process store with ExecAsync
// from a single issuing goroutine; a pool of waiters, one per lane,
// timestamps each completion as it happens.
type embedLoop struct {
	proc     *core.Process
	plan     *plan
	inflight int
	st       issuerStats
}

func (l *embedLoop) stats() issuerStats { return l.st }

type pendingOp struct {
	f  *core.Future
	t0 time.Time
	op *planned
}

func (l *embedLoop) run(stop func(int) bool, record bool, origin time.Time) {
	// At most inflight operations are outstanding (ExecAsync blocks on a
	// lane beyond that), so one waiter per lane never lets a completed
	// future sit unobserved behind an older one.
	ch := make(chan pendingOp, l.inflight)
	parts := make([]issuerStats, l.inflight)
	var wg sync.WaitGroup
	for w := 0; w < l.inflight; w++ {
		wg.Add(1)
		go func(st *issuerStats) {
			defer wg.Done()
			for p := range ch {
				res, err := p.f.Wait()
				end := time.Now()
				st.attempted++
				if err != nil {
					st.failed++
					continue
				}
				if p.op.query {
					st.queries++
					if !res.IsConsistent {
						st.certifiedDown++
					}
				} else {
					st.updates++
				}
				if record {
					st.samples = append(st.samples, sample{end: end.Sub(origin).Nanoseconds(), lat: end.Sub(p.t0).Nanoseconds(), class: p.op.class})
				}
			}
		}(&parts[w])
	}
	for i := 0; !stop(i); i++ {
		op, off := l.plan.next()
		t0 := time.Now()
		f, err := l.proc.ExecAsync(op.procedure(off), core.ExecOptions{Level: op.execLevel()})
		if err != nil {
			l.st.attempted++
			l.st.failed++
			if errors.Is(err, core.ErrClosed) {
				break
			}
			continue
		}
		ch <- pendingOp{f: f, t0: t0, op: op}
	}
	close(ch)
	wg.Wait()
	for _, p := range parts {
		l.st.add(p)
	}
}

// runLoops runs every loop to its stop condition, concurrently.
func runLoops(loops []loop, stop func(int) bool, record bool, origin time.Time) {
	var wg sync.WaitGroup
	for _, l := range loops {
		wg.Add(1)
		go func(l loop) {
			defer wg.Done()
			l.run(stop, record, origin)
		}(l)
	}
	wg.Wait()
}

// underWatchdog runs work and, if it has not returned within limit,
// calls abort (which must make work return) and waits for it. It reports
// whether the watchdog fired.
func underWatchdog(limit time.Duration, abort func(), work func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case <-done:
		return false
	case <-timer.C:
		abort()
		<-done
		return true
	}
}

// window runs the timed part shared by both paths: open the window,
// drive the loops to the deadline under a watchdog, and collect stats.
func (tr *timedRun) window(loops []loop, o runOpts, abort func()) (lastReply time.Time) {
	start := time.Now()
	deadline := start.Add(o.window)
	stop := func(int) bool { return !time.Now().Before(deadline) }
	// A call is bounded by callTimeout, so a healthy run ends well
	// inside this limit; past it the system under test is hung.
	tr.watchdogFired = underWatchdog(o.window+3*callTimeout, abort, func() {
		runLoops(loops, stop, true, start)
	})
	lastReply = time.Now()
	tr.windowNs = o.window.Nanoseconds()
	for _, l := range loops {
		tr.add(l.stats())
	}
	if tr.watchdogFired {
		tr.notes = append(tr.notes, "watchdog fired: the system under test hung and was killed")
		if tr.failed == 0 {
			tr.failed = 1
		}
	}
	return lastReply
}

func (o runOpts) warmup(sp spec) int {
	n := sp.warmup
	if o.warmDiv > 1 {
		n /= o.warmDiv
	}
	if n < 1 {
		n = 1
	}
	return n
}

// completed is how many operations of the run were answered without
// error, warm-up included: the number of records the gate expects.
func (tr *timedRun) completed() int { return tr.attempted - tr.failed }

// runRPC measures one rpc-* workload against real mocd processes.
func runRPC(e *env, sp spec, o runOpts) (*timedRun, error) {
	tr := &timedRun{}
	// The monitored workload's trace files live here for the run's length.
	dir := filepath.Join(e.outDir, "work", sp.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	warm := o.warmup(sp)
	var (
		c       *cluster
		clients []*mocrpc.Client
		loops   []loop
	)
	closeClients := func() {
		for _, cl := range clients {
			cl.Close()
		}
		clients = nil
	}
	defer func() {
		closeClients()
		if c != nil {
			c.stop()
		}
	}()
	for rep := 0; rep < o.setupReps; rep++ {
		if c != nil {
			closeClients()
			c.stop()
		}
		t0 := time.Now()
		plans := sp.plans(o.seed)
		// The reserved ports are free only until someone else binds
		// them; a launch that loses that race is simply tried again.
		var err error
		for attempt := 0; attempt < 2; attempt++ {
			if c, err = launchCluster(e.bins, sp, dir); err == nil {
				break
			}
		}
		if err != nil {
			return nil, err
		}
		loops = loops[:0]
		for i := 0; i < issuers; i++ {
			cl, err := mocrpc.Dial(c.clientAddrs[i], 5*time.Second)
			if err != nil {
				return nil, err
			}
			cl.SetCallTimeout(callTimeout)
			clients = append(clients, cl)
			loops = append(loops, &rpcLoop{cl: cl, plan: plans[i]})
		}
		runLoops(loops, func(i int) bool { return i >= warm }, false, time.Time{})
		tr.setupS = append(tr.setupS, time.Since(t0).Seconds())
	}

	if o.onWindow != nil {
		go o.onWindow(c)
	}
	u0, cpu0 := c.daemonUsage(), selfCPU()
	lastReply := tr.window(loops, o, killAllChildren)
	u1, cpu1 := c.daemonUsage(), selfCPU()
	tr.daemonCPU, tr.loadgenCPU, tr.rssMB = u1.cpu-u0.cpu, cpu1-cpu0, u1.rssMB

	var err error
	if tr.net, err = c.netStats(); err != nil {
		tr.notes = append(tr.notes, "daemon stats unavailable: "+err.Error())
	}
	var traces []core.Trace
	if sp.monitored {
		// SIGTERM drains the daemons: trace files are sealed and the
		// monitor streams Fin, which releases the tail mocmon's watermark
		// slack was holding. The lag runs from the last client reply.
		c.stopDaemons()
		st, err := c.awaitVerified(int64(tr.completed()), 30*time.Second)
		tr.lagMs = float64(time.Since(lastReply).Nanoseconds()) / 1e6
		tr.mon, tr.monVerified = st, err == nil
		if err != nil {
			tr.notes = append(tr.notes, err.Error())
		}
		for _, tf := range c.traceFiles {
			t, err := core.ReadTraceFile(tf)
			if err != nil {
				return tr, fmt.Errorf("benchmark: %s: %w\n%s", sp.name, err, c.report())
			}
			traces = append(traces, t)
		}
	} else {
		for i, addr := range c.clientAddrs {
			cl, err := mocrpc.Dial(addr, 2*time.Second)
			if err != nil {
				tr.notes = append(tr.notes, fmt.Sprintf("daemon %d dump: %v", i, err))
				continue
			}
			cl.SetCallTimeout(60 * time.Second) // a dump carries every record of the run
			t, err := cl.Dump()
			cl.Close()
			if err != nil {
				tr.notes = append(tr.notes, fmt.Sprintf("daemon %d dump: %v", i, err))
				continue
			}
			traces = append(traces, t)
		}
	}
	if len(traces) < replicas {
		tr.gate = gateResult{detail: "records of a daemon are missing"}
		tr.notes = append(tr.notes, c.report())
		return tr, nil
	}
	recs, _, _, err := core.MergeTraces(traces...)
	if err != nil {
		return tr, err
	}
	tr.gate = gate(recs, sp, tr.completed(), tr.attempted)
	if sp.monitored && tr.gate.ok && (!tr.monVerified || tr.mon.Violations > 0) {
		tr.gate.ok = false
		tr.gate.detail = fmt.Sprintf("mocmon: verified=%v violations=%d", tr.monVerified, tr.mon.Violations)
	}
	return tr, nil
}

// embedded is one in-process deployment: a store whose three processes
// talk over real loopback TCP.
type embedded struct {
	cluster *transport.Cluster
	store   *core.Store
}

func (em *embedded) close() {
	em.store.Close()
	em.cluster.Close()
}

// recordLog keeps an embedded run's records where the garbage collector
// does not look: encoded with the stream codec mocd -monitor uses, in
// pointer-free chunks. Retained as mop.Records (Store.Records), a
// ten-second batched window holds over a million pointer-rich structs in
// the measured process, and throughput then follows the collector
// scanning them rather than the replica path.
type recordLog struct {
	mu      sync.Mutex
	pending []verify.Rec
	n       int64 // records encoded so far: the next batch's FirstSeq
	chunks  [][]byte
	err     error
}

const (
	logBatch = 256     // records per encoded verify.Batch
	logChunk = 4 << 20 // a chunk is retired once it passes this size
)

// append is the store's RecordSink.
func (l *recordLog) append(rec mop.Record) {
	r, ok := verify.ToWire(rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !ok {
		l.err = fmt.Errorf("benchmark: a record carries no version vectors")
		return
	}
	if l.pending = append(l.pending, r); len(l.pending) >= logBatch {
		l.flush()
	}
}

// flush encodes the pending records onto the current chunk. Caller holds mu.
func (l *recordLog) flush() {
	if len(l.pending) == 0 {
		return
	}
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) >= logChunk {
		l.chunks = append(l.chunks, make([]byte, 0, logChunk+logChunk/4))
	}
	last := &l.chunks[len(l.chunks)-1]
	out, err := wire.AppendAny(*last, verify.Batch{FirstSeq: l.n, Recs: l.pending})
	if err != nil {
		l.err = err
		return
	}
	l.n += int64(len(l.pending))
	*last, l.pending = out, l.pending[:0]
}

// replay decodes the log batch by batch into push, in the order the
// records were appended.
func (l *recordLog) replay(push func(verify.Batch)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flush()
	if l.err != nil {
		return l.err
	}
	for _, chunk := range l.chunks {
		d := wire.NewDecoder(chunk)
		for d.Remaining() > 0 {
			b, ok := d.Any().(verify.Batch)
			if err := d.Err(); err != nil || !ok {
				return fmt.Errorf("benchmark: record log does not decode: %v", err)
			}
			push(b)
		}
	}
	return nil
}

// newEmbedded builds the store of an embed-* workload (or, for the
// traced run, of any workload's shape). links, when non-nil, wraps the
// cluster's link factory. sink, when non-nil, receives every record and
// the store keeps none itself.
func newEmbedded(sp spec, seed int64, epoch time.Time, links func(network.Factory) network.Factory, sink func(mop.Record)) (*embedded, error) {
	cl, err := transport.NewCluster(replicas)
	if err != nil {
		return nil, err
	}
	factory := cl.Factory()
	if links != nil {
		factory = links(factory)
	}
	cons := core.MSequential
	if sp.consistency == "mlin" {
		cons = core.MLinearizable
	}
	cfg := core.Config{
		Procs: replicas, Objects: sp.objectNames(), Consistency: cons,
		Broadcast: core.SequencerBroadcast, Seed: seed, Links: factory, Epoch: epoch,
		MaxInflight: sp.inflight, Shards: sp.shards, RecordSink: sink, DisableRecording: sink != nil,
	}
	if sp.batch > 1 {
		cfg.BatchSize, cfg.BatchWindow = sp.batch, sp.batchWindow
	}
	store, err := core.New(cfg)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &embedded{cluster: cl, store: store}, nil
}

// linkBook remembers the links a store builds, unwrapped, so their
// counters can be read afterwards. Store.NetStats would do, except that a
// sharded store's sum drops the per-kind and writer-batch counters.
type linkBook struct {
	mu    sync.Mutex
	links []network.Link
}

func (b *linkBook) wrap(inner network.Factory) network.Factory {
	return func(name string, cfg network.Config) (network.Link, error) {
		l, err := inner(name, cfg)
		if err == nil {
			b.mu.Lock()
			b.links = append(b.links, l)
			b.mu.Unlock()
		}
		return l, err
	}
}

func (b *linkBook) stats() network.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sum network.Stats
	for _, l := range b.links {
		sum.Merge(l.Stats())
	}
	return sum
}

// runEmbedded measures one embed-* workload in this process.
func runEmbedded(sp spec, o runOpts) (*timedRun, error) {
	tr := &timedRun{}
	warm := o.warmup(sp)
	var (
		em    *embedded
		log   *recordLog
		book  *linkBook
		loops []loop
	)
	defer func() {
		if em != nil {
			em.close()
		}
	}()
	for rep := 0; rep < o.setupReps; rep++ {
		if em != nil {
			em.close()
		}
		t0 := time.Now()
		plans := sp.plans(o.seed)
		log, book = &recordLog{}, &linkBook{}
		var err error
		if em, err = newEmbedded(sp, o.seed, time.Time{}, book.wrap, log.append); err != nil {
			return nil, err
		}
		loops = loops[:0]
		for i := 0; i < issuers; i++ {
			proc, err := em.store.Process(i)
			if err != nil {
				return nil, err
			}
			loops = append(loops, &embedLoop{proc: proc, plan: plans[i], inflight: sp.inflight})
		}
		runLoops(loops, func(i int) bool { return i >= warm }, false, time.Time{})
		tr.setupS = append(tr.setupS, time.Since(t0).Seconds())
	}

	cpu0 := selfCPU()
	tr.window(loops, o, em.store.Close)
	// Daemon and load generator are one process here; its CPU is filed
	// under the daemon and the load generator reads zero.
	tr.daemonCPU, tr.rssMB = selfCPU()-cpu0, peakRSSMB("/proc/self/status")
	tr.net = book.stats()
	tr.flushes, tr.batches, tr.batched = em.store.BatchStats()
	var err error
	tr.gate, err = gateLog(log, sp, tr.completed(), tr.attempted)
	return tr, err
}
