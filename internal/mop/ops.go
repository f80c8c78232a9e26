package mop

import (
	"slices"

	"moc/internal/object"
)

// This file provides the declarative multi-object operations the paper
// motivates in Section 1, plus the read/write primitives. All are
// deterministic and serializable-by-value, so every replica applies them
// identically.

// ReadOp reads a single object; result is the object.Value read.
type ReadOp struct {
	X object.ID
}

// Run implements Procedure.
func (o ReadOp) Run(txn Txn) any { return txn.Read(o.X) }

// MayWrite implements Procedure.
func (o ReadOp) MayWrite() bool { return false }

// Footprint implements Procedure.
func (o ReadOp) Footprint() object.Set { return object.NewSet(o.X) }

// WriteOp writes a single object; result is nil.
type WriteOp struct {
	X object.ID
	V object.Value
}

// Run implements Procedure.
func (o WriteOp) Run(txn Txn) any { txn.Write(o.X, o.V); return nil }

// MayWrite implements Procedure.
func (o WriteOp) MayWrite() bool { return true }

// Footprint implements Procedure.
func (o WriteOp) Footprint() object.Set { return object.NewSet(o.X) }

// MultiRead atomically reads several objects; result is []object.Value in
// the order of Xs. It is the paper's atomic multi-object snapshot.
type MultiRead struct {
	Xs []object.ID
}

// Run implements Procedure.
func (o MultiRead) Run(txn Txn) any {
	out := make([]object.Value, len(o.Xs))
	for i, x := range o.Xs {
		out[i] = txn.Read(x)
	}
	return out
}

// MayWrite implements Procedure.
func (o MultiRead) MayWrite() bool { return false }

// Footprint implements Procedure.
func (o MultiRead) Footprint() object.Set { return object.NewSet(o.Xs...) }

// Sum atomically reads several objects and returns their sum — the
// paper's example of a multi-method over registers; result is
// object.Value.
type Sum struct {
	Xs []object.ID
}

// Run implements Procedure.
func (o Sum) Run(txn Txn) any {
	var total object.Value
	for _, x := range o.Xs {
		total += txn.Read(x)
	}
	return total
}

// MayWrite implements Procedure.
func (o Sum) MayWrite() bool { return false }

// Footprint implements Procedure.
func (o Sum) Footprint() object.Set { return object.NewSet(o.Xs...) }

// MAssign is the atomic m-register assignment of Section 1: writes every
// (object, value) pair atomically; result is nil. Assignments are applied
// in ascending object order for determinism.
type MAssign struct {
	Writes map[object.ID]object.Value
}

// Run implements Procedure.
func (o MAssign) Run(txn Txn) any {
	xs := make([]object.ID, 0, len(o.Writes))
	for x := range o.Writes {
		xs = append(xs, x)
	}
	slices.Sort(xs)
	for _, x := range xs {
		txn.Write(x, o.Writes[x])
	}
	return nil
}

// MayWrite implements Procedure.
func (o MAssign) MayWrite() bool { return true }

// Footprint implements Procedure.
func (o MAssign) Footprint() object.Set {
	xs := make([]object.ID, 0, len(o.Writes))
	for x := range o.Writes {
		xs = append(xs, x)
	}
	return object.NewSet(xs...)
}

// CAS is single-object compare-and-swap; result is bool (whether the swap
// happened).
type CAS struct {
	X        object.ID
	Old, New object.Value
}

// Run implements Procedure.
func (o CAS) Run(txn Txn) any {
	if txn.Read(o.X) != o.Old {
		return false
	}
	txn.Write(o.X, o.New)
	return true
}

// MayWrite implements Procedure.
func (o CAS) MayWrite() bool { return true }

// Footprint implements Procedure.
func (o CAS) Footprint() object.Set { return object.NewSet(o.X) }

// DCAS is the double compare-and-swap of Section 1 (footnote 1): it
// "atomically updates locations addr1 and addr2 to values new1 and new2
// respectively if addr1 holds value old1 and addr2 holds old2 when the
// operation is invoked"; result is bool.
type DCAS struct {
	X1, X2     object.ID
	Old1, Old2 object.Value
	New1, New2 object.Value
}

// Run implements Procedure.
func (o DCAS) Run(txn Txn) any {
	if txn.Read(o.X1) != o.Old1 || txn.Read(o.X2) != o.Old2 {
		return false
	}
	txn.Write(o.X1, o.New1)
	txn.Write(o.X2, o.New2)
	return true
}

// MayWrite implements Procedure.
func (o DCAS) MayWrite() bool { return true }

// Footprint implements Procedure.
func (o DCAS) Footprint() object.Set { return object.NewSet(o.X1, o.X2) }

// Transfer is the database-flavoured motivation of Section 1: atomically
// move Amount from From to To if funds suffice; result is bool.
type Transfer struct {
	From, To object.ID
	Amount   object.Value
}

// Run implements Procedure.
func (o Transfer) Run(txn Txn) any {
	bal := txn.Read(o.From)
	if bal < o.Amount {
		return false
	}
	txn.Write(o.From, bal-o.Amount)
	txn.Write(o.To, txn.Read(o.To)+o.Amount)
	return true
}

// MayWrite implements Procedure.
func (o Transfer) MayWrite() bool { return true }

// Footprint implements Procedure.
func (o Transfer) Footprint() object.Set { return object.NewSet(o.From, o.To) }

// Func wraps an arbitrary deterministic function as a Procedure, with an
// explicitly declared footprint and write capability.
type Func struct {
	Objects object.Set
	Writes  bool
	Body    func(txn Txn) any
}

// Run implements Procedure.
func (o Func) Run(txn Txn) any { return o.Body(txn) }

// MayWrite implements Procedure.
func (o Func) MayWrite() bool { return o.Writes }

// Footprint implements Procedure.
func (o Func) Footprint() object.Set { return o.Objects }

// Compile-time interface checks.
var (
	_ Procedure = ReadOp{}
	_ Procedure = WriteOp{}
	_ Procedure = MultiRead{}
	_ Procedure = Sum{}
	_ Procedure = MAssign{}
	_ Procedure = CAS{}
	_ Procedure = DCAS{}
	_ Procedure = Transfer{}
	_ Procedure = Func{}
)

// PayloadBytes estimates the wire size of shipping a procedure: a nominal
// header plus one slot per footprint object. Used for traffic accounting.
func PayloadBytes(p Procedure) int {
	return 16 + 16*p.Footprint().Len()
}
