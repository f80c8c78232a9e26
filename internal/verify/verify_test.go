package verify

import (
	"bytes"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/monitor"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/timestamp"
)

func ts(vals ...int64) timestamp.TS { return timestamp.TS(vals) }

func mkRec(proc int, update bool, seq, inv, resp int64, start, end timestamp.TS, ops ...history.Op) mop.Record {
	return mop.Record{
		Proc: proc, Update: update, Seq: seq, Ops: ops,
		TSStart: start, TSEnd: end,
		Footprint: object.FullSet(len(start)),
		Inv:       inv, Resp: resp,
	}
}

func wOp(x object.ID, v int64) history.Op { return history.Op{Kind: history.Write, Obj: x, Val: v} }
func rOp(x object.ID, v int64) history.Op { return history.Op{Kind: history.Read, Obj: x, Val: v} }

func hasProp(vs []monitor.Violation, prop string) bool {
	for _, v := range vs {
		if v.Property == prop {
			return true
		}
	}
	return false
}

func TestWireRoundTrip(t *testing.T) {
	rec := mkRec(2, true, 7, 100, 230, ts(0, 3), ts(1, 3), wOp(0, 41), rOp(1, 9))
	rec.Level = history.LevelQuorum
	rec.IsConsistent = true
	rec.Responders = []int{0, 2}
	wr, ok := ToWire(rec)
	if !ok {
		t.Fatal("ToWire rejected a version-vector record")
	}

	msgs := []any{
		Hello{Node: 1, Gen: 42, Consistency: "mlin", Objects: []string{"x", "y"}, NextSeq: 9},
		Ack{NextSeq: 17},
		Batch{FirstSeq: 9, Recs: []Rec{wr}},
		Fin{NextSeq: 10},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("WriteMsg(%T): %v", m, err)
		}
	}
	var scratch []byte
	for _, want := range msgs {
		got, err := ReadMsg(&buf, &scratch)
		if err != nil {
			t.Fatalf("ReadMsg: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %#v, want %#v", got, want)
		}
	}

	back := wr.FromWire()
	if back.Proc != rec.Proc || back.Seq != rec.Seq || back.Level != rec.Level ||
		!back.IsConsistent || back.Inv != rec.Inv || back.Resp != rec.Resp {
		t.Fatalf("FromWire scalar mismatch: %+v vs %+v", back, rec)
	}
	if !reflect.DeepEqual(back.Ops, rec.Ops) || !reflect.DeepEqual(back.Responders, rec.Responders) {
		t.Fatalf("FromWire ops/responders mismatch")
	}
	if !reflect.DeepEqual(back.Footprint.IDs(), rec.Footprint.IDs()) {
		t.Fatalf("FromWire footprint mismatch: %v vs %v", back.Footprint.IDs(), rec.Footprint.IDs())
	}

	if _, ok := ToWire(mop.Record{Proc: 1}); ok {
		t.Fatal("ToWire accepted a tag-based record")
	}
}

// TestMergerGlobalOrder: per-node streams with intra-node inversions
// merge into one globally response-ordered stream.
func TestMergerGlobalOrder(t *testing.T) {
	m := NewMerger()
	m.OpenStream(0, 1, 0)
	m.OpenStream(1, 1, 0)

	toRec := func(resp int64) Rec {
		r, _ := ToWire(mkRec(0, false, -1, resp-1, resp, ts(0), ts(0), rOp(0, 0)))
		return r
	}
	// Node 0 ships resps 10, 30, 20 (an inversion inside one batch
	// would have been sorted by the writer; across batches it lands in
	// the heap). Node 1 ships 15, 25.
	m.Push(0, Batch{FirstSeq: 0, Recs: []Rec{toRec(10), toRec(30)}})
	m.Push(0, Batch{FirstSeq: 2, Recs: []Rec{toRec(20)}})
	m.Push(1, Batch{FirstSeq: 0, Recs: []Rec{toRec(15), toRec(25)}})

	// Release point = min(max marks) = min(30, 25) = 25 with zero slack.
	out := m.Release(0)
	var resps []int64
	for _, r := range out {
		resps = append(resps, r.Resp)
	}
	if want := []int64{10, 15, 20, 25}; !reflect.DeepEqual(resps, want) {
		t.Fatalf("released %v, want %v", resps, want)
	}
	// The rest drains once both streams fin.
	m.FinStream(0, 1)
	m.FinStream(1, 1)
	out = m.Release(0)
	if len(out) != 1 || out[0].Resp != 30 {
		t.Fatalf("drain released %v records, want the resp-30 one", out)
	}
	if m.Late() != 0 {
		t.Fatalf("late = %d on an orderly merge", m.Late())
	}
}

// TestMergerResumeDedup: a resend overlapping what the merge already
// has is dropped by sequence number, not fed twice.
func TestMergerResumeDedup(t *testing.T) {
	m := NewMerger()
	if next := m.OpenStream(0, 1, 0); next != 0 {
		t.Fatalf("fresh stream acked %d, want 0", next)
	}
	rec := func(resp int64) Rec {
		r, _ := ToWire(mkRec(0, false, -1, resp-1, resp, ts(0), ts(0), rOp(0, 0)))
		return r
	}
	m.Push(0, Batch{FirstSeq: 0, Recs: []Rec{rec(10), rec(20)}})
	// Reconnect, same generation: service wants 2.
	if next := m.OpenStream(0, 1, 0); next != 2 {
		t.Fatalf("resume acked %d, want 2", next)
	}
	// Writer resends 1 and 2: 1 is a duplicate.
	if next := m.Push(0, Batch{FirstSeq: 1, Recs: []Rec{rec(20), rec(30)}}); next != 3 {
		t.Fatalf("after resend ack = %d, want 3", next)
	}
	if m.Dups() != 1 {
		t.Fatalf("dups = %d, want 1", m.Dups())
	}
	m.FinStream(0, 1)
	if got := len(m.Release(0)); got != 3 {
		t.Fatalf("released %d records, want 3 unique", got)
	}
}

// TestIncrementalCleanRun: a correct single-order history grows no
// cycles.
func TestIncrementalCleanRun(t *testing.T) {
	c := NewIncremental(2)
	recs := []mop.Record{
		mkRec(0, true, 0, 0, 10, ts(0, 0), ts(1, 0), wOp(0, 1)),
		mkRec(1, true, 1, 5, 20, ts(1, 0), ts(1, 1), wOp(1, 2)),
		mkRec(0, false, -1, 15, 30, ts(1, 1), ts(1, 1), rOp(0, 1), rOp(1, 2)),
		mkRec(1, true, 2, 25, 40, ts(1, 1), ts(2, 1), wOp(0, 3)),
	}
	for _, r := range recs {
		if c.Observe(r) != 0 {
			t.Fatalf("violation on clean record %+v: %v", r, c.Violations())
		}
	}
	st := c.Stats()
	if st.Observed != 4 || st.LiveNodes != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// TestIncrementalDetectsWriteSkewCycle: the classic anomaly — two
// processes each write one object then read the other's object stale —
// is a po/ww/rw cycle no single total order explains, caught online by
// the Theorem 7 checker (it violates neither version accounting nor
// per-process monotonicity, so the monitor alone would pass it at m-SC
// level).
func TestIncrementalDetectsWriteSkewCycle(t *testing.T) {
	c := NewIncremental(2)
	recs := []mop.Record{
		mkRec(0, true, 0, 0, 10, ts(0, 0), ts(1, 0), wOp(0, 1)),    // P0: W(x)
		mkRec(1, true, 1, 0, 12, ts(0, 0), ts(0, 1), wOp(1, 2)),    // P1: W(y), blind to W(x)
		mkRec(0, false, -1, 20, 21, ts(1, 0), ts(1, 0), rOp(1, 0)), // P0: R(y) stale
		mkRec(1, false, -1, 22, 23, ts(0, 1), ts(0, 1), rOp(0, 0)), // P1: R(x) stale
	}
	total := 0
	for _, r := range recs {
		total += c.Observe(r)
	}
	if total == 0 || !hasProp(c.Violations(), "Thm7") {
		t.Fatalf("write-skew cycle not flagged: %v", c.Violations())
	}
	// The report names the record whose insertion closed the cycle.
	if vs := c.Violations(); !bytes.Contains([]byte(vs[len(vs)-1].Detail), []byte("P1")) {
		t.Fatalf("violation does not identify the offending record: %v", vs)
	}
}

// TestIncrementalGCBoundsMemory: with Compact engaged the retained
// graph stays near the window while the history grows without bound.
func TestIncrementalGCBoundsMemory(t *testing.T) {
	const n, window = 4000, 128
	c := NewIncremental(1)
	floors := []int64{0}
	for i := 0; i < n; i++ {
		v := int64(i)
		rec := mkRec(0, true, v, v*10, v*10+5, ts(v), ts(v+1), wOp(0, int64(i)))
		if c.Observe(rec) != 0 {
			t.Fatalf("violation on clean record %d: %v", i, c.Violations())
		}
		if i%window == 0 && i > window {
			floors[0] = int64(i - window)
			c.Compact(rec.Resp-int64(window)*10, floors)
		}
	}
	st := c.Stats()
	if st.HighWater > 3*window {
		t.Fatalf("high water %d for window %d: GC not engaged (%+v)", st.HighWater, window, st)
	}
	if st.Retired == 0 || st.LiveNodes > 2*window {
		t.Fatalf("GC stats %+v", st)
	}
	if len(c.Violations()) != 0 {
		t.Fatalf("clean run flagged: %v", c.Violations())
	}
}

// storeRecords runs a sim store and returns its records in response
// order plus the registry size.
func storeRecords(t *testing.T, cons core.Consistency, seed int64) ([]mop.Record, int) {
	t.Helper()
	s, err := core.New(core.Config{
		Procs: 3, Objects: []string{"x", "y", "z"},
		Consistency: cons, Seed: seed, MaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		p, _ := s.Process(i)
		wg.Add(1)
		go func(i int, p *core.Process) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if j%2 == 0 {
					if err := p.Write(object.ID(j%3), object.Value(i*100+j+1)); err != nil {
						t.Errorf("write: %v", err)
					}
				} else if _, err := p.MultiRead(0, 1, 2); err != nil {
					t.Errorf("read: %v", err)
				}
			}
		}(i, p)
	}
	wg.Wait()
	recs := s.Records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Resp < recs[j].Resp })
	return recs, s.Registry().Len()
}

// TestPipelineCleanStoreRun: a real (simulated) m-lin run split across
// three streams, pushed as batches, verifies clean end to end.
func TestPipelineCleanStoreRun(t *testing.T) {
	recs, n := storeRecords(t, core.MLinearizable, 7)
	p := NewPipeline(PipelineConfig{NumObjects: n, Level: monitor.MLinLevel, SlackNs: 1})

	// Round-robin split of a response-sorted list keeps each node
	// stream response-sorted, like real daemons.
	streams := make([][]Rec, 3)
	for i, r := range recs {
		wr, ok := ToWire(r)
		if !ok {
			t.Fatalf("record %d has no version vectors", i)
		}
		streams[i%3] = append(streams[i%3], wr)
	}
	for node, s := range streams {
		p.OpenStream(node, 1, 0)
		_ = s
	}
	for batchStart := 0; ; batchStart += 4 {
		any := false
		for node, s := range streams {
			if batchStart >= len(s) {
				continue
			}
			any = true
			end := batchStart + 4
			if end > len(s) {
				end = len(s)
			}
			p.Push(node, Batch{FirstSeq: int64(batchStart), Recs: s[batchStart:end]})
		}
		if !any {
			break
		}
	}
	if vs := p.Finish(); len(vs) != 0 {
		t.Fatalf("clean m-lin run flagged: %v", vs)
	}
	if st := p.Snapshot(); st.Released != int64(len(recs)) || st.Late != 0 {
		t.Fatalf("released %d of %d, late %d", st.Released, len(recs), st.Late)
	}
}

// TestServiceFlagsInjectedStaleRead: end-to-end over loopback TCP — a
// clean write stream plus one injected stale read; the service must
// flag it online and name the offender through the status RPC.
func TestServiceFlagsInjectedStaleRead(t *testing.T) {
	streamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rpcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(streamLn, rpcLn, ServiceConfig{SlackNs: 1}, nil)
	defer svc.Close()

	objects := []string{"x"}
	w, _ := ToWire(mkRec(0, true, 0, 0, 10, ts(0), ts(1), wOp(0, 1)))
	// P1 reads x at version 0 at inv 20 — after the write's response at
	// 10. Lemma 16 says a fresh read must start at >= 1.
	stale, _ := ToWire(mkRec(1, false, -1, 20, 21, ts(0), ts(0), rOp(0, 0)))

	if err := SendRecords(streamLn.Addr().String(), 0, "mlin", objects, []Rec{w}); err != nil {
		t.Fatalf("send writes: %v", err)
	}
	if err := SendRecords(streamLn.Addr().String(), 1, "mlin", objects, []Rec{stale}); err != nil {
		t.Fatalf("send stale read: %v", err)
	}

	cl, err := DialStatus(rpcLn.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	observed, nv, cons, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if cons != "mlin" || observed != 2 {
		t.Fatalf("status = (%d observed, %q), want (2, mlin)", observed, cons)
	}
	if nv == 0 {
		t.Fatal("injected stale read not flagged")
	}
	vs, err := cl.Violations(0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range vs {
		if v.Property == "Lemma16" && bytes.Contains([]byte(v.Detail), []byte("P1")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Lemma16 violation naming P1: %v", vs)
	}

	// A stream announcing mismatched store parameters is rejected.
	if err := SendRecords(streamLn.Addr().String(), 2, "msc", objects, nil); err == nil {
		t.Fatal("mismatched consistency stream accepted")
	}
}

// TestStreamWriterDeliversAndReconnects: the daemon-side sink batches,
// ships, survives a service restart, and resumes from the Ack.
func TestStreamWriterDeliversAndReconnects(t *testing.T) {
	streamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := streamLn.Addr().String()
	svc := NewService(streamLn, nil, ServiceConfig{SlackNs: 1}, nil)

	w := NewStreamWriter(WriterConfig{
		Addr: addr, Node: 0, Consistency: "mlin", Objects: []string{"x"},
		BatchRecords: 16, FlushInterval: 5 * time.Millisecond,
	})
	mk := func(i int) mop.Record {
		v := int64(i)
		return mkRec(0, true, v, v*10, v*10+5, ts(v), ts(v+1), wOp(0, v))
	}
	for i := 0; i < 100; i++ {
		w.Append(mk(i))
	}
	waitReleased := func(s *Service, want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if pipe := s.Pipeline(); pipe != nil {
				if st := pipe.Snapshot(); st.Released >= want {
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("service never released %d records", want)
	}
	// The live stream holds the watermark at its own mark, so all but
	// the tail release; close enough to assert progress.
	waitReleased(svc, 50)
	// The resume boundary asserted below is version 100 only if the
	// first service acked every first-round record before it closed.
	deadline := time.Now().Add(5 * time.Second)
	for sent, _, _ := w.Stats(); sent < 100; sent, _, _ = w.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("first service acked %d of 100 records", sent)
		}
		time.Sleep(10 * time.Millisecond)
	}
	svc.Close()

	// Service restart on the same address: the writer redials, replays
	// everything unacked, and the new service (fresh state) verifies
	// the tail it asked for.
	streamLn2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	svc2 := NewService(streamLn2, nil, ServiceConfig{SlackNs: 1}, nil)
	defer svc2.Close()
	for i := 100; i < 200; i++ {
		w.Append(mk(i))
	}
	w.Close()
	waitReleased(svc2, 100)
	// Online checks stay clean; the deferred end-of-run check flags
	// exactly the resume boundary — the first record the new service
	// saw starts from a version whose writer only the old service
	// verified. Honest accounting, not a false positive elsewhere.
	if vs := svc2.Pipeline().Violations(); len(vs) != 0 {
		t.Fatalf("clean writer stream flagged online: %v", vs)
	}
	vs := svc2.Pipeline().Finish()
	if len(vs) != 1 || vs[0].Property != "D5.1" || !bytes.Contains([]byte(vs[0].Detail), []byte("version 100")) {
		t.Fatalf("want exactly the boundary D5.1 for version 100, got %v", vs)
	}
	sent, skipped, reconnects := w.Stats()
	if sent == 0 || skipped != 0 || reconnects < 2 {
		t.Fatalf("writer stats sent=%d skipped=%d reconnects=%d", sent, skipped, reconnects)
	}
}

// TestPipelineWindowGC: the pipeline compacts on its own once the
// window fills.
// legalGen produces a legal m-lin record stream in response order: one
// global timeline, single-object writes whose value equals the version
// they establish, and every fifth m-operation a two-object ALL-level
// query reading the current snapshot. Legal by construction, so every
// violation the pipeline reports on it is a checker bug.
type legalGen struct {
	procs, objects int
	cur            timestamp.TS
	foot           object.Set
	t, seq         int64
	i              int
}

func newLegalGen(procs, objects int) *legalGen {
	return &legalGen{
		procs:   procs,
		objects: objects,
		cur:     timestamp.New(objects),
		foot:    object.FullSet(objects),
	}
}

func (g *legalGen) next() mop.Record {
	i := g.i
	g.i++
	inv := g.t
	g.t += 2
	rec := mop.Record{
		Proc:      i % g.procs,
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

// TestPipelineWindowGC: a windowed pipeline compacts and keeps its
// retained checker state bounded by the window, without flagging a
// clean run. The multi-object case is the retained-state claim of
// BENCH_E20.json's window sweep, at its quick size.
func TestPipelineWindowGC(t *testing.T) {
	p := NewPipeline(PipelineConfig{NumObjects: 1, Level: monitor.MLinLevel, Window: 64, SlackNs: 1})
	for i := 0; i < 2000; i++ {
		v := int64(i)
		p.Observe(mkRec(0, true, v, v*10, v*10+5, ts(v), ts(v+1), wOp(0, v)))
	}
	st := p.Snapshot()
	if st.Compactions == 0 || st.Checker.Retired == 0 {
		t.Fatalf("window GC never engaged: %+v", st)
	}
	if st.Checker.HighWater > 3*64 {
		t.Fatalf("checker high water %d for window 64", st.Checker.HighWater)
	}
	if vs := p.Finish(); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}

	// 6 processes, 8 objects, an ALL-level two-object query on every
	// fifth record: window 0 retains the whole history, window 2048
	// must stay within twice its window and below the unbounded run.
	const records, window = 8000, 2048
	stream := func(window int) Stats {
		p := NewPipeline(PipelineConfig{NumObjects: 8, Level: monitor.MLinLevel, Window: window})
		g := newLegalGen(6, 8)
		for i := 0; i < records; i++ {
			p.Observe(g.next())
		}
		if vs := p.Finish(); len(vs) != 0 {
			t.Fatalf("window %d: clean stream flagged: %v", window, vs)
		}
		return p.Snapshot()
	}
	unbounded, windowed := stream(0), stream(window)
	if unbounded.Compactions != 0 {
		t.Fatalf("window 0 compacted %d times", unbounded.Compactions)
	}
	if windowed.Compactions == 0 {
		t.Fatalf("window %d never compacted over %d records: %+v", window, records, windowed)
	}
	if hw := windowed.Checker.HighWater; hw > 2*window || hw >= unbounded.Checker.HighWater {
		t.Fatalf("window %d retained %d nodes; want <= %d and below the unbounded run's %d",
			window, hw, 2*window, unbounded.Checker.HighWater)
	}
}
