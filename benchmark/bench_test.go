package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"moc/internal/core"
	"moc/internal/mop"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 100}, {0.1, 10}, {0, 10}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestMedianOfSegments(t *testing.T) {
	// A 3 s window: 10, 20 and 40 operations in its three seconds, plus
	// one during warm-up and one after the deadline that must not count.
	var samples []sample
	add := func(n int, second int64, lat int64, class uint8) {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{end: second*1e9 + int64(i)*1e6, lat: lat, class: class})
		}
	}
	add(10, 0, 100e3, classUpdate)
	add(20, 1, 200e3, classUpdate)
	add(40, 2, 300e3, classQuery)
	samples = append(samples, sample{end: -5, lat: 1, class: classUpdate}, sample{end: 3e9 + 1, lat: 1, class: classUpdate})

	ws := summarize(samples, 3e9)
	if ws.completed != 70 {
		t.Fatalf("completed = %d, want 70", ws.completed)
	}
	if ws.opsPerS.value != 20 {
		t.Errorf("ops_per_s = %v, want the median segment 20", ws.opsPerS.value)
	}
	if !near(ws.opsPerS.spread, 1.5, 1e-9) {
		t.Errorf("segment spread = %v, want (40-10)/20", ws.opsPerS.spread)
	}
	// Updates exist in two segments only: the median of 100 and 200 µs.
	if ws.updateP50.value != 150 || ws.updateP50.n != 30 {
		t.Errorf("update p50 = %+v, want 150 us over 30 samples", ws.updateP50)
	}
	if ws.queryP50.value != 300 || ws.queryP50.n != 40 {
		t.Errorf("query p50 = %+v, want 300 us over 40 samples", ws.queryP50)
	}
}

// handBuilt is one operation: a client span holding a core span holding
// three sends, two overlapping and one running past the core span's end,
// plus one send outside any operation.
func handBuilt() []span {
	clients := []span{{Layer: "client", Name: "client", Start: 0, End: 100}}
	cores := []span{{Layer: "core", Name: "core", Start: 10, End: 90}}
	links := []span{
		{Layer: "link", Name: "link.abcast", Start: 20, End: 30},
		{Layer: "link", Name: "link.abcast", Start: 25, End: 40},
		{Layer: "link", Name: "link.mlin.query", Start: 85, End: 95},
		{Layer: "link", Name: "link.abcast", Start: 150, End: 160},
	}
	return assemble(clients, cores, links)
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := handBuilt()
	self := selfTimes(spans)
	var client, coreSpan span
	for _, s := range spans {
		switch s.Layer {
		case "client":
			client = s
		case "core":
			coreSpan = s
		}
	}
	if coreSpan.Parent != client.ID {
		t.Fatalf("core span's parent = %d, want the client span %d", coreSpan.Parent, client.ID)
	}
	if got := self[client.ID]; got != 20 {
		t.Errorf("client self = %d, want 100-80", got)
	}
	// Sends cover 20..40 and 85..90 of the core span: 25 of its 80.
	if got := self[coreSpan.ID]; got != 55 {
		t.Errorf("core self = %d, want 80-25", got)
	}
	background := 0
	for _, s := range spans {
		if s.Layer == "link" && s.Parent == 0 {
			background++
			if s.Op != -1 {
				t.Errorf("background send has op %d", s.Op)
			}
		}
	}
	if background != 1 {
		t.Errorf("%d background sends, want 1", background)
	}

	b := stageBudget(spans, []bool{false})
	var sum float64
	for _, st := range b.stages {
		sum += st.SelfUs
	}
	if !near(sum, b.clientUs, 1e-9) || !near(b.clientUs, 0.1, 1e-9) {
		t.Errorf("stages sum to %v us, client span is %v us, want both 0.1", sum, b.clientUs)
	}
	if !near(b.linkUs, 0.025, 1e-9) || !near(b.backgroundUs, 0.010, 1e-9) {
		t.Errorf("link %v us background %v us, want 0.025 and 0.010", b.linkUs, b.backgroundUs)
	}
}

func TestPlansFollowTheSeed(t *testing.T) {
	for _, sp := range workloads {
		a, b, c := sp.plans(7), sp.plans(7), sp.plans(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different plans", sp.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same plans", sp.name)
		}
		if len(a) != issuers {
			t.Errorf("%s: %d plans, want one per issuer", sp.name, len(a))
		}
	}
	// A replayed plan never repeats a written value.
	p := workloads[0].plans(1)[0]
	seen := map[int64]bool{}
	for i := 0; i < 2*planLen; i++ {
		op, off := p.next()
		for _, v := range op.vals {
			if seen[v+off] {
				t.Fatalf("value %d written twice", v+off)
			}
			seen[v+off] = true
		}
	}
}

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	var bj benchmarkJSON
	if err := readJSON(filepath.Join(repoRoot(t), "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	var e2e, layers []string
	setup := false
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, unitOf(m.Name))
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("end_to_end names differ:\n json %v\n prog %v", e2e, endToEndNames)
	}
	if !reflect.DeepEqual(layers, perLayerNames) {
		t.Errorf("per_layer names differ:\n json %v\n prog %v", layers, perLayerNames)
	}
}

// serialRecords runs a small serial workload on an in-process store and
// returns its records.
func serialRecords(t *testing.T, sp spec, ops int) []mop.Record {
	t.Helper()
	var mu sync.Mutex
	var recs []mop.Record
	em, err := newEmbedded(sp, 3, time.Time{}, nil, func(r mop.Record) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer em.close()
	plans := sp.plans(3)
	for n := 0; n < ops; n++ {
		i := n % issuers
		proc, err := em.store.Process(i)
		if err != nil {
			t.Fatal(err)
		}
		op, off := plans[i].next()
		if _, err := proc.Exec(op.procedure(off), core.ExecOptions{Level: op.execLevel()}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]mop.Record(nil), recs...)
}

func TestGateRejectsADroppedRecordAndAStaleRead(t *testing.T) {
	sp := spec{name: "test-mlin", embedded: true, consistency: "mlin", objects: 4, span: 2, readFrac: 0.5, levels: true, shards: 1, batch: 1, inflight: 1}
	const ops = 300
	recs := serialRecords(t, sp, ops)
	clone := func() []mop.Record { return append([]mop.Record(nil), recs...) }

	if g := gate(clone(), sp, ops, ops); !g.ok {
		t.Fatalf("gate rejected a clean run: %s", g.detail)
	}
	// Nothing reads from a query, so dropping one leaves a history that
	// verifies: only the record count gives it away.
	dropped := clone()
	for i := len(dropped) - 1; i >= 0; i-- {
		if !dropped[i].Update {
			dropped = append(dropped[:i], dropped[i+1:]...)
			break
		}
	}
	if g := gate(dropped, sp, ops, ops); g.ok || g.violations != 0 {
		t.Errorf("gate accepted a run with one record dropped (ok=%v, %d violations)", g.ok, g.violations)
	}
	// Report the last strong query that saw version >= 1 of an object one
	// version stale, the way mocd -staleinject does. The run is serial,
	// so the newer version's writer had already responded: Lemma 16.
	stale := clone()
	planted := false
	for i := len(stale) - 1; i >= 0 && !planted; i-- {
		r := &stale[i]
		if r.Update || r.Level != core.All || r.TSStart == nil {
			continue
		}
		for _, x := range r.Footprint.IDs() {
			if r.TSStart.Get(x) >= 1 {
				r.TSStart, r.TSEnd = r.TSStart.Clone(), r.TSEnd.Clone()
				r.TSStart.Set(x, r.TSStart.Get(x)-1)
				r.TSEnd.Set(x, r.TSEnd.Get(x)-1)
				planted = true
				break
			}
		}
	}
	if !planted {
		t.Fatal("no query to make stale")
	}
	if g := gate(stale, sp, ops, ops); g.ok || g.violations == 0 {
		t.Errorf("gate accepted a stale read (ok=%v, violations=%d)", g.ok, g.violations)
	}
}

func TestRecordLogReplaysThroughTheGate(t *testing.T) {
	sp := spec{name: "test-msc", embedded: true, consistency: "msc", objects: 4, span: 2, readFrac: 0.3, shards: 1, batch: 1, inflight: 1}
	const ops = 2*logBatch + 17 // full batches and a pending tail
	log := &recordLog{}
	for _, r := range serialRecords(t, sp, ops) {
		log.append(r)
	}
	g, err := gateLog(log, sp, ops, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !g.ok || g.records != ops {
		t.Errorf("gateLog: ok=%v records=%d (%s), want %d clean records", g.ok, g.records, g.detail, ops)
	}
	if g, _ := gateLog(log, sp, ops+1, ops+1); g.ok {
		t.Error("gateLog accepted a run one record short")
	}
}

func TestWatchdogAbortsAHang(t *testing.T) {
	hung := make(chan struct{})
	fired := underWatchdog(20*time.Millisecond, func() { close(hung) }, func() { <-hung })
	if !fired {
		t.Error("watchdog did not fire on a hang")
	}
	if underWatchdog(time.Minute, func() { t.Error("abort called on a healthy run") }, func() {}) {
		t.Error("watchdog fired on a healthy run")
	}
}

func TestTracedBudgetSumsToTheClientSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback cluster")
	}
	for _, name := range []string{"rpc-mlin-levels", "embed-shard4-cross"} {
		sp, _ := findWorkload(name)
		spans, isQueryOp, _, err := serialRun(sp, 5, 300, true)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[int]span{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		cores := 0
		for _, s := range spans {
			if p, ok := byID[s.Parent]; ok && (s.Start < p.Start || s.Start > p.End) {
				t.Fatalf("%s: span %+v starts outside its parent %+v", name, s, p)
			}
			if s.Layer == "core" {
				cores++
			}
		}
		if cores < len(isQueryOp)*9/10 {
			t.Errorf("%s: %d core spans for %d operations", name, cores, len(isQueryOp))
		}
		b := stageBudget(spans, isQueryOp)
		var sum float64
		for _, st := range b.stages {
			sum += st.SelfUs
		}
		if b.ops != len(isQueryOp) || !near(sum, b.clientUs, 0.02) {
			t.Errorf("%s: stages sum to %.3f us, the client span is %.3f us over %d ops", name, sum, b.clientUs, b.ops)
		}
	}
}

func TestAKilledDaemonCountsAsFailuresNotAHang(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches mocd")
	}
	root := repoRoot(t)
	bins, err := buildBinaries(root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, outDir: filepath.Join(root, "benchmark", "out", "test"), bins: bins}
	sp, _ := findWorkload("rpc-msc-mix50")
	t0 := time.Now()
	tr, err := runRPC(e, sp, runOpts{
		seed: 1, window: 1500 * time.Millisecond, setupReps: 1, warmDiv: 10,
		// Daemon 1 serves a client but hosts no sequencer: its client
		// fails at once while the other keeps going.
		onWindow: func(c *cluster) {
			time.Sleep(300 * time.Millisecond)
			c.daemons[1].kill()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 30*time.Second {
		t.Errorf("the run took %v", took)
	}
	if tr.failed == 0 || tr.gate.ok {
		t.Errorf("failed=%d gate.ok=%v after a daemon was killed, want failures and a closed gate", tr.failed, tr.gate.ok)
	}
}

func TestAgree(t *testing.T) {
	root := repoRoot(t)
	dir := filepath.Join(root, "benchmark", "out", "test")
	bench := filepath.Join(root, "BENCHMARK.json")
	mk := func(ops, spread float64) resultFile {
		r := &result{Workload: "rpc-msc-mix50", Correct: true, Attempted: 1000}
		for _, name := range endToEndNames {
			m := metric{Name: name, Value: 100, Unit: unitOf(name), N: 10}
			if name == "ops_per_s" {
				m.Value, m.Spread = ops, spread
			}
			r.EndToEnd = append(r.EndToEnd, m)
		}
		return resultFile{Results: []*result{r}}
	}
	write := func(name string, f resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bj benchmarkJSON
	if err := readJSON(bench, &bj); err != nil {
		t.Fatal(err)
	}
	bound := bj.EndToEnd[0].Bound // ops_per_s
	base := write("agree-a.json", mk(10000, 0.02))
	worse := 10000 * (1 - 1.5*bound)
	var out bytes.Buffer
	if code := runAgree(&out, bench, base, base); code != 0 {
		t.Errorf("a file disagrees with itself (exit %d):\n%s", code, out.String())
	}
	out.Reset()
	slower := write("agree-b.json", mk(worse, 0.02))
	if code := runAgree(&out, bench, base, slower); code != 1 || !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("an ops_per_s drop of 1.5 bounds passed (exit %d):\n%s", code, out.String())
	}
	out.Reset()
	if code := runAgree(&out, bench, slower, base); code != 0 {
		t.Errorf("an ops_per_s rise was called a disagreement (exit %d):\n%s", code, out.String())
	}
	out.Reset()
	noisy := write("agree-c.json", mk(worse, 2*bound))
	if code := runAgree(&out, bench, base, noisy); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a metric whose segments disagree was not unresolved (exit %d):\n%s", code, out.String())
	}
	out.Reset()
	failing := mk(10000, 0.02)
	failing.Results[0].Failed = 1
	if code := runAgree(&out, bench, base, write("agree-d.json", failing)); code != 1 {
		t.Errorf("a different failure count passed (exit %d)", code)
	}
}

func TestContractLine(t *testing.T) {
	r := &result{Workload: "w", Correct: true, Attempted: 5, EndToEnd: []metric{{Name: "setup_s", Value: 0.5, Unit: "s"}}, PerLayer: []metric{{Name: "core.self_us", Value: 2, Unit: "us"}}}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(contractLine(r)), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 5 || len(got.Metrics) != 1 || got.Metrics["setup_s"].Value != 0.5 {
		t.Errorf("timed line = %+v", got)
	}
	r.Traced = true
	got.Metrics = nil
	if err := json.Unmarshal([]byte(contractLine(r)), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != 1 || got.Metrics["core.self_us"].Unit != "us" {
		t.Errorf("traced line = %+v", got)
	}
}
