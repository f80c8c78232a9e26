package main

import (
	"fmt"
	"math/rand"
	"time"

	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/workload"
)

const (
	// replicas is the cluster size of every workload.
	replicas = 3
	// issuers is how many closed loops generate load: the box has two
	// cores, so two client connections (rpc-*) or two issuing goroutines
	// (embed-*), at processes 0 and 1. Replica 2 takes no client traffic;
	// it only applies updates and answers its peers.
	issuers = 2
	// planLen is the length of one issuer's generated plan. A window
	// replays the plan in cycles, shifting written values per cycle, so a
	// run of any length sees only operations derived from the seed.
	planLen = 1 << 14
	// callTimeout bounds one RPC; an operation that exceeds it counts as
	// failed.
	callTimeout = 5 * time.Second
	// gateWindow is the GC window of the post-run verify.Pipeline replay.
	// The replay slows as the window grows (on embed-update-batch's
	// records: 238k records/s at 4096, 132k at 16384, 54k at 65536) and
	// the verdicts agree, so it is the smallest size that still spans
	// many times the operations in flight.
	gateWindow = 4096
	// monWindow is the GC window of the mocmon process on the monitored
	// workload, which has idle time to spare.
	monWindow = 16384
)

// spec is one workload: a cluster shape plus a traffic mix.
type spec struct {
	name string
	// embedded runs an in-process core.Store over a loopback TCP
	// transport.Cluster; otherwise three real mocd processes are driven
	// through mocrpc.
	embedded    bool
	consistency string // "msc" or "mlin"
	objects     int
	span        int
	readFrac    float64
	// levels draws ONE/QUORUM/ALL uniformly for every query (m-lin only).
	levels bool
	// monitored turns on -trace files and streams records to a real
	// mocmon process.
	monitored   bool
	shards      int
	crossFrac   float64
	batch       int
	batchWindow time.Duration
	inflight    int
	// warmup is the number of operations each issuer runs before the
	// window opens; it is charged to setup_s.
	warmup int
}

// workloads are the benchmark's five; BENCHMARK.json and README.md say
// why each was chosen.
var workloads = []spec{
	{
		name:        "rpc-msc-mix50",
		consistency: "msc", objects: 8, span: 2, readFrac: 0.5,
		shards: 1, batch: 1, inflight: 1, warmup: 1500,
	},
	{
		name:        "rpc-mlin-levels",
		consistency: "mlin", objects: 8, span: 2, readFrac: 0.5, levels: true,
		shards: 1, batch: 1, inflight: 1, warmup: 1000,
	},
	{
		name:        "rpc-msc-monitored",
		consistency: "msc", objects: 8, span: 2, readFrac: 0.5, monitored: true,
		shards: 1, batch: 1, inflight: 1, warmup: 1500,
	},
	{
		name:     "embed-update-batch",
		embedded: true, consistency: "msc", objects: 8, span: 1, readFrac: 0.1,
		shards: 1, batch: 32, batchWindow: 200 * time.Microsecond, inflight: 32, warmup: 20000,
	},
	{
		name:     "embed-shard4-cross",
		embedded: true, consistency: "msc", objects: 16, span: 2, readFrac: 0.2,
		shards: 4, crossFrac: 0.1, batch: 8, batchWindow: 200 * time.Microsecond, inflight: 8, warmup: 5000,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func (sp spec) objectNames() []string {
	names := make([]string, sp.objects)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	return names
}

// planned is one generated operation in the forms both paths consume:
// object ids for the embedded store, names and an RPC kind for mocrpc.
type planned struct {
	query bool
	class uint8
	level string // "", "one", "quorum", "all"
	ids   []object.ID
	names []string
	kind  string
	vals  []int64
}

// plan is one issuer's operation list. next replays it in cycles;
// written values are shifted by maxVal per cycle so every write of a run
// stays unique.
type plan struct {
	ops    []planned
	maxVal int64
	pos    int
}

// next returns the next operation and the offset to add to its values.
func (p *plan) next() (*planned, int64) {
	op := &p.ops[p.pos%len(p.ops)]
	off := int64(p.pos/len(p.ops)) * p.maxVal
	p.pos++
	return op, off
}

// plans expands the workload's mix into one plan per issuer. The same
// seed gives the same plans.
func (sp spec) plans(seed int64) []*plan {
	rng := rand.New(rand.NewSource(seed))
	var raw [][]workload.Op
	if sp.shards > 1 {
		raw = workload.ShardMix{
			ReadFrac: sp.readFrac, Span: sp.span, OpsPerProc: planLen,
			Shards: sp.shards, CrossFrac: sp.crossFrac,
		}.Plan(issuers, sp.objects, rng)
	} else {
		raw = workload.Mix{ReadFrac: sp.readFrac, Span: sp.span, OpsPerProc: planLen}.Plan(issuers, sp.objects, rng)
	}
	var maxVal int64
	for _, ops := range raw {
		for _, op := range ops {
			for _, v := range op.Vals {
				if int64(v) > maxVal {
					maxVal = int64(v)
				}
			}
		}
	}
	names := sp.objectNames()
	levels := []struct {
		name  string
		class uint8
	}{{"one", classOne}, {"quorum", classQuorum}, {"all", classAll}}
	out := make([]*plan, len(raw))
	for i, ops := range raw {
		p := &plan{ops: make([]planned, len(ops)), maxVal: maxVal}
		for j, op := range ops {
			pl := planned{query: op.Query, ids: op.Objs, names: make([]string, len(op.Objs))}
			for k, x := range op.Objs {
				pl.names[k] = names[x]
			}
			switch {
			case op.Query && sp.levels:
				l := levels[rng.Intn(len(levels))]
				pl.level, pl.class = l.name, l.class
			case op.Query:
				pl.class = classQuery
			default:
				pl.class = classUpdate
				pl.vals = make([]int64, len(op.Vals))
				for k, v := range op.Vals {
					pl.vals[k] = int64(v)
				}
			}
			single := len(op.Objs) == 1
			switch {
			case op.Query && single:
				pl.kind = "read"
			case op.Query:
				pl.kind = "multiread"
			case single:
				pl.kind = "write"
			default:
				pl.kind = "massign"
			}
			p.ops[j] = pl
		}
		out[i] = p
	}
	return out
}

// procedure is the operation as the embedded store executes it.
func (pl *planned) procedure(off int64) mop.Procedure {
	switch pl.kind {
	case "read":
		return mop.ReadOp{X: pl.ids[0]}
	case "multiread":
		return mop.MultiRead{Xs: pl.ids}
	case "write":
		return mop.WriteOp{X: pl.ids[0], V: object.Value(pl.vals[0] + off)}
	default:
		writes := make(map[object.ID]object.Value, len(pl.ids))
		for i, x := range pl.ids {
			writes[x] = object.Value(pl.vals[i] + off)
		}
		return mop.MAssign{Writes: writes}
	}
}

func (pl *planned) execLevel() history.Level {
	l, _ := history.ParseLevel(pl.level) // levels come from the fixed table above
	return l
}
