package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"moc/internal/network"
)

// The metric names below are the benchmark's vocabulary; BENCHMARK.json
// lists the same names with direction and bound, and a test keeps the two
// in step.

// endToEndNames are what a client of the system sees, on every workload.
var endToEndNames = []string{
	"ops_per_s", "query_p50_us", "update_p50_us", "update_p99_us", "setup_s",
}

// perLayerNames are single-layer numbers, reported and never gated. A
// layer a workload does not exercise reads 0 there.
var perLayerNames = []string{
	// An end-to-end number by nature; CALIBRATION.md says why it is not gated.
	"query_p99_us",
	"mocrpc.self_us", "mocrpc.codec_ns", "mocrpc.req_bytes", "mocrpc.resp_bytes",
	"core.exec_query_us", "core.exec_update_us", "core.self_us",
	"mlin.query_one_p50_us", "mlin.query_quorum_p50_us", "mlin.query_all_p50_us",
	"mlin.query_msgs_per_query", "mlin.certified_down_frac",
	"abcast.order_us", "abcast.msgs_per_update", "abcast.bytes_per_update", "abcast.batch_fill",
	"shard.single_us", "shard.cross_us", "shard.msgs_per_cross_op",
	"transport.send_us", "transport.frames_per_op", "transport.bytes_per_op",
	"transport.frames_per_write", "transport.reconnects",
	"wire.write_encode_ns", "wire.write_decode_ns", "wire.write_bytes",
	"wire.massign_encode_ns", "wire.massign_decode_ns", "wire.massign_bytes",
	"wire.batch32_encode_ns", "wire.batch32_decode_ns", "wire.batch32_bytes",
	"verify.verified_per_s", "verify.lag_ms", "verify.superseded", "verify.violations", "verify.observe_ns",
	"checker.check_s", "checker.records_per_s",
	"proc.daemon_cpu_us_per_op", "proc.loadgen_cpu_us_per_op", "proc.daemon_rss_mb",
	"trace_overhead_frac",
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_per_s", "1/s"}, {"_us_per_op", "us"}, {"_us", "us"}, {"_ns", "ns"}, {"_ms", "ms"}, {"_s", "s"},
		{"_bytes", "B"}, {"_mb", "MB"}, {"_frac", "frac"}, {"bytes_per_update", "B"}, {"bytes_per_op", "B"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// metricSet collects metrics by name and emits them in a fixed order.
type metricSet map[string]metric

func (s metricSet) put(name string, value float64, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	s[name] = metric{Name: name, Value: value, Unit: unitOf(name), N: n}
}

func (s metricSet) putSeg(name string, st segStat) {
	s.put(name, st.value, st.n)
	m := s[name]
	m.Spread, m.Segments = st.spread, st.vals
	s[name] = m
}

// ordered returns the metrics of names that were put; with all set, the
// missing ones read 0.
func (s metricSet) ordered(names []string, all bool) []metric {
	var out []metric
	for _, name := range names {
		m, ok := s[name]
		if !ok {
			if !all {
				continue
			}
			m = metric{Name: name, Unit: unitOf(name)}
		}
		out = append(out, m)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// kindTotals sums the counters of every message kind with the prefix.
func kindTotals(st network.Stats, prefix string) (msgs, bytes int64) {
	for kind, ks := range st.ByKind {
		if strings.HasPrefix(kind, prefix) {
			msgs += ks.Messages
			bytes += ks.Bytes
		}
	}
	return msgs, bytes
}

// measureOpts is one invocation's settings for every workload.
type measureOpts struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
}

// measure runs one workload and turns what it produced into a result.
func measure(e *env, sp spec, mo measureOpts) (*result, error) {
	o := runOpts{seed: mo.seed, window: time.Duration(mo.seconds * float64(time.Second)), setupReps: 3, warmDiv: 1}
	ops := tracedOps
	if mo.smoke {
		o.window, o.setupReps, o.warmDiv = time.Second, 1, 10
		ops = tracedOps / 10
	}
	if mo.trace {
		// Half the time goes to the loaded deployment (counters that only
		// exist under load), the rest to the serial traced run and the
		// layer harnesses.
		o.window, o.setupReps = o.window/2, 1
	}
	var tr *timedRun
	var err error
	if sp.embedded {
		tr, err = runEmbedded(sp, o)
	} else {
		tr, err = runRPC(e, sp, o)
	}
	if err != nil {
		return nil, err
	}
	r := &result{
		Workload: sp.name, Seed: mo.seed, Seconds: o.window.Seconds(), Traced: mo.trace,
		Correct: tr.gate.ok && tr.failed == 0, Attempted: tr.attempted, Failed: tr.failed,
		Notes: tr.notes,
	}
	if !tr.gate.ok {
		r.Notes = append(r.Notes, "correctness gate: "+tr.gate.detail)
	}

	ws := summarize(tr.samples, tr.windowNs)
	e2e := metricSet{}
	e2e.putSeg("ops_per_s", ws.opsPerS)
	e2e.putSeg("query_p50_us", ws.queryP50)
	e2e.putSeg("update_p50_us", ws.updateP50)
	e2e.putSeg("update_p99_us", ws.updateP99)
	e2e.put("setup_s", median(tr.setupS), len(tr.setupS))
	r.EndToEnd = e2e.ordered(endToEndNames, true)

	pl := metricSet{}
	pl.putSeg("query_p99_us", ws.queryP99)
	done := float64(tr.completed())
	pl.putSeg("mlin.query_one_p50_us", ws.levelP50[classOne])
	pl.putSeg("mlin.query_quorum_p50_us", ws.levelP50[classQuorum])
	pl.putSeg("mlin.query_all_p50_us", ws.levelP50[classAll])
	if sp.consistency == "mlin" {
		// Query and reply messages; the update ack phase is mlin.ack.
		q, _ := kindTotals(tr.net, "mlin.query")
		qr, _ := kindTotals(tr.net, "mlin.qresp")
		pl.put("mlin.query_msgs_per_query", ratio(float64(q+qr), float64(tr.queries)), tr.queries)
		pl.put("mlin.certified_down_frac", ratio(float64(tr.certifiedDown), float64(tr.queries)), tr.queries)
	}
	am, ab := kindTotals(tr.net, "abcast.")
	pl.put("abcast.msgs_per_update", ratio(float64(am), float64(tr.updates)), tr.updates)
	pl.put("abcast.bytes_per_update", ratio(float64(ab), float64(tr.updates)), tr.updates)
	switch {
	case tr.flushes > 0:
		pl.put("abcast.batch_fill", float64(tr.batched+tr.flushes-tr.batches)/float64(tr.flushes), int(tr.flushes))
	case sp.batch == 1:
		// Unbatched: every update is its own broadcast frame.
		pl.put("abcast.batch_fill", 1, tr.updates)
	default:
		// Store.BatchStats sees only an unsharded store's Batcher; a
		// sharded store's per-lane batchers are out of reach, so the
		// metric reads 0 there.
		r.Notes = append(r.Notes, "abcast.batch_fill is not exposed by a sharded store")
	}
	pl.put("transport.frames_per_op", ratio(float64(tr.net.Messages), done), int(done))
	pl.put("transport.bytes_per_op", ratio(float64(tr.net.Bytes), done), int(done))
	pl.put("transport.frames_per_write", ratio(float64(tr.net.BatchedFrames), float64(tr.net.Batches)), int(tr.net.Batches))
	pl.put("transport.reconnects", float64(tr.net.Reconnects), 1)
	if sp.monitored {
		// Records of the window over the time mocmon took to finish them.
		windowRecs := float64(tr.mon.Released) - float64(issuers*o.warmup(sp))
		pl.put("verify.verified_per_s", ratio(windowRecs, o.window.Seconds()+tr.lagMs/1e3), int(windowRecs))
		pl.put("verify.lag_ms", tr.lagMs, 1)
		pl.put("verify.superseded", float64(tr.mon.Superseded), 1)
		pl.put("verify.violations", float64(tr.mon.Violations), int(tr.mon.Released))
		pl.put("verify.observe_ns", tr.gate.observeNs, tr.gate.records)
	}
	pl.put("checker.check_s", tr.gate.checkS, tr.gate.records)
	pl.put("checker.records_per_s", ratio(float64(tr.gate.records), tr.gate.checkS), tr.gate.records)
	inWindow := float64(ws.completed)
	pl.put("proc.daemon_cpu_us_per_op", ratio(float64(tr.daemonCPU.Microseconds()), inWindow), ws.completed)
	pl.put("proc.loadgen_cpu_us_per_op", ratio(float64(tr.loadgenCPU.Microseconds()), inWindow), ws.completed)
	pl.put("proc.daemon_rss_mb", tr.rssMB, 1)

	if mo.trace {
		if err := traceLayers(e, sp, mo.seed, ops, r, pl); err != nil {
			return nil, err
		}
	}
	r.PerLayer = pl.ordered(perLayerNames, mo.trace)
	return r, nil
}

// traceLayers performs the traced part of a -trace run: the serial run
// with and without the span wrappers, the span file, the stage budget,
// and the layer harnesses.
func traceLayers(e *env, sp spec, seed int64, ops int, r *result, pl metricSet) error {
	_, _, plainUs, err := serialRun(sp, seed, ops, false)
	if err != nil {
		return err
	}
	spans, isQueryOp, tracedUs, err := serialRun(sp, seed, ops, true)
	if err != nil {
		return err
	}
	r.SpanFile = filepath.Join(e.outDir, "trace-"+sp.name+".json")
	if err := writeJSON(r.SpanFile, spans); err != nil {
		return err
	}
	b := stageBudget(spans, isQueryOp)
	r.Budget, r.BudgetClientUs = b.stages, b.clientUs
	if b.backgroundUs > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("link time outside any operation (off the budget): %.2f us per operation", b.backgroundUs))
	}
	if !sp.embedded {
		// On the rpc shapes the client span is mocrpc.Client.Exec, so what
		// it does not spend in core is the front door.
		pl.put("mocrpc.self_us", b.clientSelfUs, b.ops)
		c, err := rpcCodecHarness()
		if err != nil {
			return err
		}
		pl.put("mocrpc.codec_ns", c.roundTripNs, harnessRounds)
		pl.put("mocrpc.req_bytes", float64(c.reqBytes), 1)
		pl.put("mocrpc.resp_bytes", float64(c.respBytes), 1)
	}
	pl.put("core.exec_query_us", b.coreQueryUs, b.ops)
	pl.put("core.exec_update_us", b.coreUpdateUs, b.ops)
	pl.put("core.self_us", b.coreSelfUs, b.ops)
	pl.put("transport.send_us", b.linkUs, b.ops)
	pl.put("trace_overhead_frac", ratio(tracedUs-plainUs, plainUs), b.ops)

	orderUs, err := orderHarness()
	if err != nil {
		return err
	}
	pl.put("abcast.order_us", orderUs, harnessOps)
	if sp.shards > 1 {
		c, err := shardHarness(sp)
		if err != nil {
			return err
		}
		pl.put("shard.single_us", c.singleUs, harnessOps)
		pl.put("shard.cross_us", c.crossUs, harnessOps)
		pl.put("shard.msgs_per_cross_op", c.msgsPerCrossOp, harnessOps)
	}
	for name, v := range wirePayloads() {
		c, err := wireHarness(v)
		if err != nil {
			return err
		}
		pl.put("wire."+name+"_encode_ns", c.encodeNs, harnessRounds)
		pl.put("wire."+name+"_decode_ns", c.decodeNs, harnessRounds)
		pl.put("wire."+name+"_bytes", float64(c.bytes), 1)
	}
	return nil
}
