package core

import (
	"fmt"

	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/timestamp"
)

// Trace is the JSON-serializable dump of one store's (or one daemon's)
// recorded execution: the raw protocol records plus the configuration
// needed to interpret them. Traces from the daemons of one cluster are
// combined with MergeTraces into the record set BuildHistory (and thus
// the checkers) consume. Only the version-vector protocols (MSequential,
// MLinearizable) are supported — the tag-based causal records are not
// part of the wire format, matching the Links restriction.
type Trace struct {
	// Node identifies the dumping process (daemon index); informational.
	Node int `json:"node"`
	// Consistency is the store's condition ("m-sequential" or
	// "m-linearizable"); merged traces must agree.
	Consistency string `json:"consistency"`
	// Objects is the registry name list, in ID order; merged traces must
	// agree.
	Objects []string `json:"objects"`
	// Shards is the canonical shard-map spec (shard.Map.Spec, e.g.
	// "mod:8/4") of a sharded store, empty when unsharded. Records from
	// stores with different shard maps carry incomparable sequence
	// numbers, so merged traces must agree.
	Shards string `json:"shards,omitempty"`
	// Records are the m-operations this process executed.
	Records []TraceRecord `json:"records"`
}

// TraceRecord is the wire form of one mop.Record.
type TraceRecord struct {
	Proc      int       `json:"proc"`
	Update    bool      `json:"update"`
	Seq       int64     `json:"seq"`
	Ops       []TraceOp `json:"ops"`
	TSStart   []int64   `json:"tsStart"`
	TSEnd     []int64   `json:"tsEnd"`
	Footprint []int     `json:"footprint"`
	Inv       int64     `json:"inv"`
	Resp      int64     `json:"resp"`
	// Level is the certified consistency level ("one", "quorum", "all");
	// empty for level-less legacy records, which the checkers hold to the
	// store's native condition.
	Level      string `json:"level,omitempty"`
	Responders []int  `json:"responders,omitempty"`
	Consistent bool   `json:"consistent,omitempty"`
}

// TraceOp is the wire form of one read or write within an m-operation.
type TraceOp struct {
	Kind string       `json:"kind"` // "r" or "w"
	Obj  int          `json:"obj"`
	Val  object.Value `json:"val"`
}

// Trace dumps the store's recorded execution for cross-process merging.
// The store must be quiescent (no Execute in flight), like History.
func (s *Store) Trace(node int) (Trace, error) {
	recs, err := s.quiescentRecords()
	if err != nil {
		return Trace{}, err
	}

	tr := Trace{
		Node:        node,
		Consistency: s.cfg.Consistency.String(),
		Objects:     s.reg.Names(),
		Shards:      s.ShardSpec(),
		Records:     make([]TraceRecord, 0, len(recs)),
	}
	for _, rec := range recs {
		tr.Records = append(tr.Records, toTraceRecord(rec))
	}
	return tr, nil
}

// toTraceRecord converts one raw protocol record to its wire form.
func toTraceRecord(rec mop.Record) TraceRecord {
	wr := TraceRecord{
		Proc: rec.Proc, Update: rec.Update, Seq: rec.Seq,
		TSStart: rec.TSStart, TSEnd: rec.TSEnd,
		Inv: rec.Inv, Resp: rec.Resp,
		Level: rec.Level.String(), Responders: rec.Responders,
		Consistent: rec.IsConsistent,
	}
	for _, op := range rec.Ops {
		wr.Ops = append(wr.Ops, TraceOp{Kind: op.Kind.String(), Obj: int(op.Obj), Val: op.Val})
	}
	for _, id := range rec.Footprint.IDs() {
		wr.Footprint = append(wr.Footprint, int(id))
	}
	return wr
}

// fromTraceRecord converts one wire record back to the raw form.
func fromTraceRecord(wr TraceRecord) (mop.Record, error) {
	level, err := history.ParseLevel(wr.Level)
	if err != nil {
		return mop.Record{}, fmt.Errorf("core: trace record: %w", err)
	}
	rec := mop.Record{
		Proc: wr.Proc, Update: wr.Update, Seq: wr.Seq,
		TSStart: timestamp.TS(wr.TSStart), TSEnd: timestamp.TS(wr.TSEnd),
		Inv: wr.Inv, Resp: wr.Resp,
		Level: level, Responders: wr.Responders, IsConsistent: wr.Consistent,
	}
	for _, op := range wr.Ops {
		switch op.Kind {
		case "r":
			rec.Ops = append(rec.Ops, history.R(object.ID(op.Obj), op.Val))
		case "w":
			rec.Ops = append(rec.Ops, history.W(object.ID(op.Obj), op.Val))
		default:
			return mop.Record{}, fmt.Errorf("core: trace op kind %q", op.Kind)
		}
	}
	ids := make([]object.ID, 0, len(wr.Footprint))
	for _, x := range wr.Footprint {
		ids = append(ids, object.ID(x))
	}
	rec.Footprint = object.NewSet(ids...)
	return rec, nil
}

// MergeTraces combines per-process trace dumps into one record set and
// the registry and consistency condition they were captured under. The
// traces must agree on both; records come back ready for BuildHistory.
func MergeTraces(traces ...Trace) ([]mop.Record, *object.Registry, Consistency, error) {
	if len(traces) == 0 {
		return nil, nil, 0, fmt.Errorf("core: no traces to merge")
	}
	first := traces[0]
	var cons Consistency
	switch first.Consistency {
	case MSequential.String():
		cons = MSequential
	case MLinearizable.String():
		cons = MLinearizable
	default:
		return nil, nil, 0, fmt.Errorf("core: unsupported consistency %q in trace", first.Consistency)
	}
	reg, err := object.NewRegistry(first.Objects)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: trace registry: %w", err)
	}
	var recs []mop.Record
	for _, tr := range traces {
		if tr.Consistency != first.Consistency {
			return nil, nil, 0, fmt.Errorf("core: trace consistency mismatch: node %d has %q, node %d has %q",
				first.Node, first.Consistency, tr.Node, tr.Consistency)
		}
		if len(tr.Objects) != len(first.Objects) {
			return nil, nil, 0, fmt.Errorf("core: trace object-list mismatch between nodes %d and %d", first.Node, tr.Node)
		}
		for i, name := range tr.Objects {
			if name != first.Objects[i] {
				return nil, nil, 0, fmt.Errorf("core: trace object-list mismatch between nodes %d and %d", first.Node, tr.Node)
			}
		}
		if tr.Shards != first.Shards {
			// Sequence numbers are composed per shard map; records
			// stamped under different maps (or one sharded, one not)
			// cannot be ordered against each other.
			return nil, nil, 0, fmt.Errorf("core: trace shard-map mismatch: node %d has %q, node %d has %q",
				first.Node, first.Shards, tr.Node, tr.Shards)
		}
		for _, wr := range tr.Records {
			rec, err := fromTraceRecord(wr)
			if err != nil {
				return nil, nil, 0, err
			}
			recs = append(recs, rec)
		}
	}
	return recs, reg, cons, nil
}
