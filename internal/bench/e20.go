package bench

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/monitor"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/timestamp"
	"moc/internal/transport"
	"moc/internal/verify"
)

// E20 benchmarks verification itself, now that it is a networked
// component (cmd/mocmon): how many records per second the online
// pipeline (merge -> Section 5 monitor -> incremental Theorem 7
// checker) verifies, and how its retained state scales with the GC
// window. Two series:
//
//   - Window sweep: a synthetic, legal-by-construction m-lin record
//     stream is fed straight into verify.Pipeline at several window
//     sizes, including 0 (no GC, offline mode). The retained-state
//     high-water must track the window, not the history length.
//   - TCP stream: the acceptance run. Three store processes over real
//     loopback TCP (the E15 deployment) run an update-only
//     pipelined workload; every completed record goes through a
//     per-node verify.StreamWriter — batches, acks, resume, exactly
//     what mocd -monitor ships — into a verify.Service on its own TCP
//     listener. >= 1M update records on the full run, zero violations,
//     windowed GC engaged, heap high-water reported.
//
// The claims BENCH_E20.json pins: windowed runs compact and hold their
// retained state strictly below the unbounded run's (which grows with
// the history); the TCP run verifies >= 1M records with zero
// violations and bounded retained state.

// e20SweepParams are the window sweep's fixed parameters.
var e20SweepParams = struct {
	Procs, Objects int
	Windows        []int
	Records        int
}{Procs: 6, Objects: 8, Windows: []int{0, 4096, 16384, 65536}, Records: 250_000}

// e20TCPParams are the TCP acceptance run's fixed parameters.
var e20TCPParams = struct {
	Procs, Objects, Inflight, Batch int
	Window                          int
	BatchWindow                     time.Duration
	Records                         int
}{Procs: 3, Objects: 8, Inflight: 32, Batch: 32, Window: 16384, BatchWindow: 200 * time.Microsecond, Records: 1_050_000}

// e20Gen produces a legal m-lin record stream in response order: one
// global timeline, single-object writes whose value equals the version
// they establish, and every fifth m-operation a two-object ALL-level
// query reading the current snapshot. Legal by construction, so every
// violation the pipeline reports on it is a checker bug.
type e20Gen struct {
	objects int
	cur     timestamp.TS
	foot    object.Set
	t       int64
	seq     int64
	i       int
}

func newE20Gen(objects int) *e20Gen {
	return &e20Gen{
		objects: objects,
		cur:     timestamp.New(objects),
		foot:    object.FullSet(objects),
	}
}

func (g *e20Gen) next(procs int) mop.Record {
	i := g.i
	g.i++
	inv := g.t
	g.t += 2
	rec := mop.Record{
		Proc:      i % procs,
		Footprint: g.foot,
		Inv:       inv,
		Resp:      inv + 1,
		Level:     history.LevelAll,
	}
	if i%5 == 4 {
		x := object.ID(i % g.objects)
		y := object.ID((i + 3) % g.objects)
		rec.Seq = -1
		rec.Ops = []history.Op{
			history.R(x, g.cur.Get(x)),
			history.R(y, g.cur.Get(y)),
		}
		rec.TSStart = g.cur.Clone()
		rec.TSEnd = rec.TSStart
		rec.IsConsistent = true
		return rec
	}
	x := object.ID(i % g.objects)
	rec.Update = true
	rec.Seq = g.seq
	g.seq++
	rec.TSStart = g.cur.Clone()
	g.cur.Set(x, g.cur.Get(x)+1)
	rec.TSEnd = g.cur.Clone()
	rec.Ops = []history.Op{history.W(x, g.cur.Get(x))}
	return rec
}

// e20Point is one measured cell (either series).
type e20Point struct {
	Window        int
	Records       int64
	RecsPerSec    float64
	Compactions   int64
	CheckerHW     int
	MonUnresHW    int
	MonPending    int
	HeapHW        uint64
	Violations    int
	UpdatesPerSec float64 // TCP only: store-side update throughput
}

// e20Sweep measures one window size on the synthetic stream.
func e20Sweep(window, records int) (e20Point, error) {
	p := verify.NewPipeline(verify.PipelineConfig{
		NumObjects: e20SweepParams.Objects,
		Level:      monitor.MLinLevel,
		Window:     window,
	})
	g := newE20Gen(e20SweepParams.Objects)
	start := time.Now()
	for i := 0; i < records; i++ {
		p.Observe(g.next(e20SweepParams.Procs))
	}
	vs := p.Finish()
	elapsed := time.Since(start)
	st := p.Snapshot()
	if len(vs) != 0 {
		return e20Point{}, fmt.Errorf("E20 sweep window %d: %d violations on a legal stream: %v", window, len(vs), vs[0])
	}
	return e20Point{
		Window:      window,
		Records:     st.Released,
		RecsPerSec:  float64(records) / elapsed.Seconds(),
		Compactions: st.Compactions,
		CheckerHW:   st.Checker.HighWater,
		MonUnresHW:  st.Monitor.UnresolvedHW,
		MonPending:  st.Monitor.Pending,
		HeapHW:      st.HeapHW,
	}, nil
}

// e20TCP runs the acceptance deployment: the E15 TCP store shape
// with every record streamed to a live verification service.
func e20TCP(quick bool) (e20Point, error) {
	pr := e20TCPParams
	records := pr.Records
	if quick {
		records = 30_000
	}
	opsPerWorker := (records + pr.Procs*pr.Inflight - 1) / (pr.Procs * pr.Inflight)
	total := pr.Procs * pr.Inflight * opsPerWorker

	streamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e20Point{}, err
	}
	svc := verify.NewService(streamLn, nil, verify.ServiceConfig{Window: pr.Window}, nil)
	defer svc.Close()

	names := make([]string, pr.Objects)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	writers := make([]*verify.StreamWriter, pr.Procs)
	for id := range writers {
		writers[id] = verify.NewStreamWriter(verify.WriterConfig{
			Addr: streamLn.Addr().String(), Node: id,
			Consistency: "msc", Objects: names,
			BatchRecords: 1024, FlushInterval: 5 * time.Millisecond,
		})
	}

	cluster, err := transport.NewCluster(pr.Procs)
	if err != nil {
		return e20Point{}, err
	}
	defer cluster.Close()
	s, err := core.New(core.Config{
		Procs:            pr.Procs,
		Objects:          names,
		Consistency:      core.MSequential,
		Seed:             20,
		DisableRecording: true,
		MaxInflight:      pr.Inflight,
		BatchSize:        pr.Batch,
		BatchWindow:      pr.BatchWindow,
		Links:            cluster.Factory(),
		RecordSink: func(rec mop.Record) {
			writers[rec.Proc%pr.Procs].Append(rec)
		},
	})
	if err != nil {
		return e20Point{}, err
	}
	defer s.Close()

	errs := make(chan error, pr.Procs*pr.Inflight)
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < pr.Procs; pid++ {
		proc, err := s.Process(pid)
		if err != nil {
			return e20Point{}, err
		}
		for w := 0; w < pr.Inflight; w++ {
			wg.Add(1)
			go func(pid, w int, proc *core.Process) {
				defer wg.Done()
				for i := 0; i < opsPerWorker; i++ {
					op := mop.WriteOp{
						X: object.ID((w*opsPerWorker + i) % pr.Objects),
						V: object.Value(1000*pid + 10*w + i),
					}
					if _, err := proc.Exec(op, core.ExecOptions{}); err != nil {
						errs <- err
						return
					}
				}
			}(pid, w, proc)
		}
	}
	wg.Wait()
	driveElapsed := time.Since(start)
	select {
	case err := <-errs:
		return e20Point{}, err
	default:
	}

	// Drain: store first (no more Appends), then the writers (final
	// flush + Fin), then the service (streams are complete).
	s.Close()
	for _, w := range writers {
		w.Close()
	}
	svc.Close()
	pipe := svc.Pipeline()
	if pipe == nil {
		return e20Point{}, fmt.Errorf("E20 tcp: no stream ever reached the service")
	}
	vs := pipe.Finish()
	verifyElapsed := time.Since(start)
	st := pipe.Snapshot()
	if len(vs) != 0 {
		return e20Point{}, fmt.Errorf("E20 tcp: %d violations on a clean run: %v", len(vs), vs[0])
	}
	if st.Released != int64(total) {
		return e20Point{}, fmt.Errorf("E20 tcp: service released %d of %d records", st.Released, total)
	}
	return e20Point{
		Window:        pr.Window,
		Records:       st.Released,
		RecsPerSec:    float64(total) / verifyElapsed.Seconds(),
		Compactions:   st.Compactions,
		CheckerHW:     st.Checker.HighWater,
		MonUnresHW:    st.Monitor.UnresolvedHW,
		MonPending:    st.Monitor.Pending,
		HeapHW:        st.HeapHW,
		UpdatesPerSec: float64(total) / driveElapsed.Seconds(),
	}, nil
}

// e20Check pins the experiment's claims.
func e20Check(sweep []e20Point, tcp e20Point, quick bool) error {
	var unbounded *e20Point
	for i := range sweep {
		if sweep[i].Window == 0 {
			unbounded = &sweep[i]
		}
	}
	if unbounded == nil {
		return fmt.Errorf("E20: sweep is missing the unbounded (window 0) cell")
	}
	if unbounded.Compactions != 0 {
		return fmt.Errorf("E20: unbounded cell compacted %d times", unbounded.Compactions)
	}
	for _, pt := range sweep {
		if pt.Window == 0 {
			continue
		}
		if pt.Compactions == 0 {
			return fmt.Errorf("E20: window %d never compacted over %d records", pt.Window, pt.Records)
		}
		if pt.CheckerHW >= unbounded.CheckerHW {
			return fmt.Errorf("E20: window %d retained %d nodes, not below the unbounded run's %d",
				pt.Window, pt.CheckerHW, unbounded.CheckerHW)
		}
		if pt.CheckerHW > 2*pt.Window {
			return fmt.Errorf("E20: window %d retained %d nodes — GC is not keeping up", pt.Window, pt.CheckerHW)
		}
	}
	if tcp.Violations != 0 {
		return fmt.Errorf("E20 tcp: %d violations", tcp.Violations)
	}
	if !quick && tcp.Records < 1_000_000 {
		return fmt.Errorf("E20 tcp: %d records streamed, acceptance needs >= 1M", tcp.Records)
	}
	if tcp.Compactions == 0 {
		return fmt.Errorf("E20 tcp: windowed GC never engaged")
	}
	if tcp.CheckerHW > 2*tcp.Window {
		return fmt.Errorf("E20 tcp: retained %d nodes against a %d window — GC is not keeping up", tcp.CheckerHW, tcp.Window)
	}
	return nil
}

// e20Results runs both series, shared by the text and JSON emitters.
func e20Results(quick bool) ([]e20Point, e20Point, error) {
	windows := e20SweepParams.Windows
	records := e20SweepParams.Records
	if quick {
		windows = []int{0, 2048}
		records = 8_000
	}
	var sweep []e20Point
	for _, w := range windows {
		pt, err := e20Sweep(w, records)
		if err != nil {
			return nil, e20Point{}, err
		}
		sweep = append(sweep, pt)
	}
	tcp, err := e20TCP(quick)
	if err != nil {
		return nil, e20Point{}, err
	}
	if err := e20Check(sweep, tcp, quick); err != nil {
		return nil, e20Point{}, err
	}
	return sweep, tcp, nil
}

// runE20 prints both series.
//
// Expected shape: verified records/s roughly flat across windows (GC is
// cheap), retained state (checker live-node high-water, monitor
// unresolved high-water) tracking the window while the unbounded cell
// grows with the history; the TCP cell streams the full run through
// real sockets with zero violations.
func runE20(w io.Writer, quick bool) error {
	sweep, tcp, err := e20Results(quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "synthetic m-lin stream, %d procs, %d objects:\n",
		e20SweepParams.Procs, e20SweepParams.Objects)
	tb := newTable(w)
	tb.row("window", "records", "recs/s", "compactions", "checkerHW", "monUnresHW", "heapHW")
	for _, pt := range sweep {
		tb.row(pt.Window, pt.Records, fmt.Sprintf("%.0f", pt.RecsPerSec),
			pt.Compactions, pt.CheckerHW, pt.MonUnresHW, fmtBytes(pt.HeapHW))
	}
	tb.flush()
	fmt.Fprintf(w, "loopback TCP, %d store procs x %d lanes, batch %d, per-node record streams:\n",
		e20TCPParams.Procs, e20TCPParams.Inflight, e20TCPParams.Batch)
	tb = newTable(w)
	tb.row("window", "records", "updates/s", "verified/s", "compactions", "checkerHW", "heapHW")
	tb.row(tcp.Window, tcp.Records, fmt.Sprintf("%.0f", tcp.UpdatesPerSec),
		fmt.Sprintf("%.0f", tcp.RecsPerSec), tcp.Compactions, tcp.CheckerHW, fmtBytes(tcp.HeapHW))
	tb.flush()
	fmt.Fprintln(w, "expected shape: retained state tracks the window (the unbounded cell grows")
	fmt.Fprintln(w, "with the history); the TCP run verifies the full update stream with zero")
	fmt.Fprintln(w, "violations and the GC engaged")
	return nil
}

// fmtBytes renders a byte count at MB granularity for the tables.
func fmtBytes(b uint64) string {
	return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
}

// e20JSON emits both series as one report.
func e20JSON(quick bool) (Report, error) {
	sweep, tcp, err := e20Results(quick)
	if err != nil {
		return Report{}, err
	}
	sweepSeries := Series{Name: "synthetic-window-sweep"}
	for _, pt := range sweep {
		sweepSeries.Points = append(sweepSeries.Points, map[string]any{
			"window":           pt.Window,
			"records":          pt.Records,
			"recsPerSec":       pt.RecsPerSec,
			"compactions":      pt.Compactions,
			"checkerHighWater": pt.CheckerHW,
			"monUnresolvedHW":  pt.MonUnresHW,
			"heapHWBytes":      pt.HeapHW,
		})
	}
	tcpSeries := Series{Name: "tcp-stream", Points: []map[string]any{{
		"window":           tcp.Window,
		"records":          tcp.Records,
		"updatesPerSec":    tcp.UpdatesPerSec,
		"verifiedPerSec":   tcp.RecsPerSec,
		"compactions":      tcp.Compactions,
		"checkerHighWater": tcp.CheckerHW,
		"monUnresolvedHW":  tcp.MonUnresHW,
		"heapHWBytes":      tcp.HeapHW,
		"violations":       tcp.Violations,
	}}}
	return Report{
		Parameters: map[string]any{
			"sweepProcs":     e20SweepParams.Procs,
			"sweepObjects":   e20SweepParams.Objects,
			"sweepWindows":   e20SweepParams.Windows,
			"sweepRecords":   e20SweepParams.Records,
			"sweepLevel":     "m-linearizable",
			"tcpProcs":       e20TCPParams.Procs,
			"tcpInflight":    e20TCPParams.Inflight,
			"tcpBatch":       e20TCPParams.Batch,
			"tcpWindow":      e20TCPParams.Window,
			"tcpRecords":     e20TCPParams.Records,
			"tcpConsistency": "m-sequential",
			"transport":      "in-process + tcp-loopback",
		},
		Series: []Series{sweepSeries, tcpSeries},
	}, nil
}
