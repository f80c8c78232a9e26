package main

import (
	"fmt"
	"sort"
	"time"

	"moc/internal/monitor"
	"moc/internal/mop"
	"moc/internal/verify"
)

// gateResult is the verdict of the correctness gate on one run.
type gateResult struct {
	ok         bool
	records    int
	violations int
	detail     string  // why the gate failed; empty when ok
	checkS     float64 // the whole replay: order, observe, finish
	observeNs  float64 // checkS per record
}

// The gate replays a run's records in response order through
// verify.Pipeline (the Section 5 monitor plus the incremental Theorem 7
// check, exactly what moccheck -stream and mocmon run) and requires zero
// violations and one record per completed operation. lo and hi bound the
// record count: they are equal unless operations failed, in which case a
// failed call may or may not have executed.

func newGatePipeline(sp spec) *verify.Pipeline {
	level := monitor.MSCLevel
	if sp.consistency == "mlin" {
		level = monitor.MLinLevel
	}
	return verify.NewPipeline(verify.PipelineConfig{
		NumObjects: sp.objects, Level: level, Window: gateWindow, Shards: sp.shards,
	})
}

func verdict(pipe *verify.Pipeline, t0 time.Time, lo, hi int) gateResult {
	vs := pipe.Finish()
	n := int(pipe.Snapshot().Released)
	g := gateResult{records: n, violations: len(vs), checkS: time.Since(t0).Seconds()}
	if n > 0 {
		g.observeNs = g.checkS * 1e9 / float64(n)
	}
	switch {
	case len(vs) > 0:
		g.detail = fmt.Sprintf("%d violations, first: %s", len(vs), vs[0])
	case n < lo || n > hi:
		g.detail = fmt.Sprintf("%d records for %d..%d completed operations", n, lo, hi)
	default:
		g.ok = true
	}
	return g
}

// gate checks records held in memory: the daemons' merged dumps.
func gate(recs []mop.Record, sp spec, lo, hi int) gateResult {
	t0 := time.Now()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Resp < recs[j].Resp })
	pipe := newGatePipeline(sp)
	for _, rec := range recs {
		pipe.Observe(rec)
	}
	return verdict(pipe, t0, lo, hi)
}

// gateLog checks an embedded run's record log. The log is one stream in
// near response order, so it goes through the pipeline's own merger the
// way a daemon's stream reaches mocmon, batch by batch, and the records
// are never all decoded at once.
func gateLog(log *recordLog, sp spec, lo, hi int) (gateResult, error) {
	t0 := time.Now()
	pipe := newGatePipeline(sp)
	const node, gen = 0, 1
	pipe.OpenStream(node, gen, 0)
	if err := log.replay(func(b verify.Batch) { pipe.Push(node, b) }); err != nil {
		return gateResult{}, err
	}
	pipe.FinStream(node, gen)
	return verdict(pipe, t0, lo, hi), nil
}
