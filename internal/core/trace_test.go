package core

import (
	"testing"

	"moc/internal/checker"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/timestamp"
)

// TestVerifyOOLinksQueriesOnReadObjectsOnly is IRIW at the records
// level: two concurrent single-object writes and two queries that each
// read one of them, while their full-set footprints claim version 0 of
// the object they did not read (a sharded m-lin query's merged copy is
// not a snapshot). Linking each query to the next writer of that unread
// object closes the cycle w(x) → r(x) → w(y) → r(y) → w(x), although
// the order w(x) w(y) r(x) r(y) is a legal m-linearization. The
// polynomial VerifyOO must agree with the exact checker.
func TestVerifyOOLinksQueriesOnReadObjectsOnly(t *testing.T) {
	reg, err := object.NewRegistry([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	const x, y = object.ID(0), object.ID(1)
	full := object.FullSet(reg.Len())
	recs := []mop.Record{
		{Proc: 0, Update: true, Seq: -1, Ops: []history.Op{history.W(x, 1)},
			TSStart: timestamp.TS{0, 0}, TSEnd: timestamp.TS{1, 0},
			Footprint: object.NewSet(x), Inv: 1, Resp: 10},
		{Proc: 1, Update: true, Seq: -1, Ops: []history.Op{history.W(y, 1)},
			TSStart: timestamp.TS{0, 0}, TSEnd: timestamp.TS{0, 1},
			Footprint: object.NewSet(y), Inv: 2, Resp: 11},
		{Proc: 2, Seq: -1, Ops: []history.Op{history.R(x, 1)},
			TSStart: timestamp.TS{1, 0}, TSEnd: timestamp.TS{1, 0},
			Footprint: full, Inv: 3, Resp: 12, Result: object.Value(1)},
		{Proc: 3, Seq: -1, Ops: []history.Op{history.R(y, 1)},
			TSStart: timestamp.TS{0, 1}, TSEnd: timestamp.TS{0, 1},
			Footprint: full, Inv: 4, Resp: 13, Result: object.Value(1)},
	}

	res, err := VerifyOO(reg, append([]mop.Record(nil), recs...), history.MLinearizableBase)
	if err != nil {
		t.Fatalf("VerifyOO: %v", err)
	}
	h, _, err := BuildHistory(reg, append([]mop.Record(nil), recs...))
	if err != nil {
		t.Fatalf("BuildHistory: %v", err)
	}
	exact, err := checker.MLinearizable(h)
	if err != nil {
		t.Fatalf("MLinearizable: %v", err)
	}
	if !exact.Admissible {
		t.Fatal("exact checker rejects a history with the legal m-linearization w(x) w(y) r(x) r(y)")
	}
	if res.OK != exact.Admissible {
		t.Fatalf("VerifyOO = %v, exact checker = %v", res.OK, exact.Admissible)
	}
}
