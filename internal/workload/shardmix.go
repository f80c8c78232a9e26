package workload

import (
	"math/rand"

	"moc/internal/object"
)

// ShardMix describes a shard-affine operation mix for sharded stores
// (the embed-shard4-cross benchmark workload and mocload -shards):
// objects partition into Shards pools by id mod Shards, each process
// works against its home shard (proc mod Shards), and a CrossFrac
// fraction of its m-operations additionally touch one object of a
// foreign shard — the operations the ticket/close/commit merge must
// order. CrossFrac 0 is the pure composition regime in which lanes
// never coordinate.
type ShardMix struct {
	// ReadFrac is the fraction of queries.
	ReadFrac float64
	// Span is how many home-shard objects each m-operation touches.
	Span int
	// OpsPerProc is the number of m-operations each process issues.
	OpsPerProc int
	// Shards is the shard count the object space is partitioned into.
	Shards int
	// CrossFrac is the probability an m-operation extends its footprint
	// with one object of a uniformly-drawn foreign shard.
	CrossFrac float64
}

// Plan expands the mix into a deterministic per-process operation list
// over `objects` objects, like Mix.Plan. Spans are capped to the home
// pool; values are globally unique starting at 1.
func (m ShardMix) Plan(procs, objects int, rng *rand.Rand) [][]Op {
	shards := m.Shards
	if shards < 1 {
		shards = 1
	}
	pools := make([][]object.ID, shards)
	for x := 0; x < objects; x++ {
		s := x % shards
		pools[s] = append(pools[s], object.ID(x))
	}
	plans := make([][]Op, procs)
	nextVal := object.Value(1)
	for p := 0; p < procs; p++ {
		home := p % shards
		plan := make([]Op, m.OpsPerProc)
		for i := range plan {
			pool := pools[home]
			span := m.Span
			if span > len(pool) {
				span = len(pool)
			}
			if span < 1 {
				span = 1
			}
			objs := make([]object.ID, span)
			for j, k := range rng.Perm(len(pool))[:span] {
				objs[j] = pool[k]
			}
			if shards > 1 && rng.Float64() < m.CrossFrac {
				other := rng.Intn(shards - 1)
				if other >= home {
					other++
				}
				foreign := pools[other]
				objs = append(objs, foreign[rng.Intn(len(foreign))])
			}
			op := Op{Objs: objs}
			if rng.Float64() < m.ReadFrac {
				op.Query = true
			} else {
				op.Vals = make([]object.Value, len(objs))
				for j := range op.Vals {
					op.Vals[j] = nextVal
					nextVal++
				}
			}
			plan[i] = op
		}
		plans[p] = plan
	}
	return plans
}
