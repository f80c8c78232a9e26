package mop

import (
	"bytes"
	"errors"
	"testing"

	"moc/internal/history"
	"moc/internal/object"
)

func run(t *testing.T, values []object.Value, p Procedure) (*Recorder, any) {
	t.Helper()
	r := NewRecorder(values, p)
	res := p.Run(r)
	return r, res
}

func TestReadOp(t *testing.T) {
	vals := []object.Value{7, 8}
	r, res := run(t, vals, ReadOp{X: 1})
	if r.Err() != nil {
		t.Fatalf("Err: %v", r.Err())
	}
	if res.(object.Value) != 8 {
		t.Fatalf("result = %v", res)
	}
	ops := r.Ops()
	if len(ops) != 1 || ops[0] != history.R(1, 8) {
		t.Fatalf("ops = %v", ops)
	}
	if r.WroteAny() {
		t.Fatal("read reported a write")
	}
}

func TestWriteOp(t *testing.T) {
	vals := []object.Value{0}
	r, _ := run(t, vals, WriteOp{X: 0, V: 42})
	if r.Err() != nil {
		t.Fatalf("Err: %v", r.Err())
	}
	if vals[0] != 42 {
		t.Fatalf("value = %d", vals[0])
	}
	if !r.Written().Equal(object.NewSet(0)) {
		t.Fatalf("Written = %v", r.Written())
	}
}

func TestMultiReadAndSum(t *testing.T) {
	vals := []object.Value{1, 2, 3}
	_, res := run(t, vals, MultiRead{Xs: []object.ID{0, 2}})
	got := res.([]object.Value)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("MultiRead = %v", got)
	}
	_, sum := run(t, vals, Sum{Xs: []object.ID{0, 1, 2}})
	if sum.(object.Value) != 6 {
		t.Fatalf("Sum = %v", sum)
	}
}

func TestMAssignDeterministicOrder(t *testing.T) {
	vals := make([]object.Value, 4)
	p := MAssign{Writes: map[object.ID]object.Value{3: 30, 0: 10, 2: 20}}
	r, _ := run(t, vals, p)
	if r.Err() != nil {
		t.Fatalf("Err: %v", r.Err())
	}
	ops := r.Ops()
	if len(ops) != 3 {
		t.Fatalf("ops = %v", ops)
	}
	// Ascending object order regardless of map iteration.
	if ops[0].Obj != 0 || ops[1].Obj != 2 || ops[2].Obj != 3 {
		t.Fatalf("write order = %v", ops)
	}
	if !p.Footprint().Equal(object.NewSet(0, 2, 3)) {
		t.Fatalf("footprint = %v", p.Footprint())
	}
}

func TestCASSemantics(t *testing.T) {
	vals := []object.Value{5}
	_, ok := run(t, vals, CAS{X: 0, Old: 5, New: 6})
	if !ok.(bool) || vals[0] != 6 {
		t.Fatalf("successful CAS: ok=%v vals=%v", ok, vals)
	}
	r, ok2 := run(t, vals, CAS{X: 0, Old: 5, New: 7})
	if ok2.(bool) || vals[0] != 6 {
		t.Fatalf("failed CAS mutated state: ok=%v vals=%v", ok2, vals)
	}
	if r.WroteAny() {
		t.Fatal("failed CAS recorded a write")
	}
}

func TestDCASSemantics(t *testing.T) {
	vals := []object.Value{1, 2}
	_, ok := run(t, vals, DCAS{X1: 0, X2: 1, Old1: 1, Old2: 2, New1: 10, New2: 20})
	if !ok.(bool) || vals[0] != 10 || vals[1] != 20 {
		t.Fatalf("successful DCAS: %v %v", ok, vals)
	}
	_, ok2 := run(t, vals, DCAS{X1: 0, X2: 1, Old1: 10, Old2: 99, New1: 0, New2: 0})
	if ok2.(bool) || vals[0] != 10 || vals[1] != 20 {
		t.Fatalf("failed DCAS mutated state: %v %v", ok2, vals)
	}
}

func TestTransferSemantics(t *testing.T) {
	vals := []object.Value{100, 0}
	_, ok := run(t, vals, Transfer{From: 0, To: 1, Amount: 30})
	if !ok.(bool) || vals[0] != 70 || vals[1] != 30 {
		t.Fatalf("transfer: %v %v", ok, vals)
	}
	_, ok2 := run(t, vals, Transfer{From: 0, To: 1, Amount: 1000})
	if ok2.(bool) || vals[0] != 70 {
		t.Fatalf("overdraft allowed: %v %v", ok2, vals)
	}
	if vals[0]+vals[1] != 100 {
		t.Fatalf("conservation violated: %v", vals)
	}
}

func TestFuncProcedure(t *testing.T) {
	vals := []object.Value{3, 4}
	p := Func{
		Objects: object.NewSet(0, 1),
		Writes:  true,
		Body: func(txn Txn) any {
			a, b := txn.Read(0), txn.Read(1)
			txn.Write(0, b)
			txn.Write(1, a)
			return a + b
		},
	}
	r, res := run(t, vals, p)
	if r.Err() != nil {
		t.Fatalf("Err: %v", r.Err())
	}
	if res.(object.Value) != 7 || vals[0] != 4 || vals[1] != 3 {
		t.Fatalf("swap result: %v %v", res, vals)
	}
}

func TestRecorderRejectsFootprintEscape(t *testing.T) {
	vals := []object.Value{0, 0}
	p := Func{
		Objects: object.NewSet(0),
		Writes:  true,
		Body: func(txn Txn) any {
			txn.Write(1, 5) // outside footprint
			return nil
		},
	}
	r, _ := run(t, vals, p)
	if !errors.Is(r.Err(), ErrOutsideFootprint) {
		t.Fatalf("Err = %v, want ErrOutsideFootprint", r.Err())
	}
	if vals[1] != 0 {
		t.Fatal("out-of-footprint write applied")
	}
}

func TestRecorderRejectsQueryWrite(t *testing.T) {
	vals := []object.Value{0}
	p := Func{
		Objects: object.NewSet(0),
		Writes:  false,
		Body: func(txn Txn) any {
			txn.Write(0, 1)
			return nil
		},
	}
	r, _ := run(t, vals, p)
	if !errors.Is(r.Err(), ErrQueryWrote) {
		t.Fatalf("Err = %v, want ErrQueryWrote", r.Err())
	}
	if vals[0] != 0 {
		t.Fatal("query write applied")
	}
}

func TestRecorderOutOfRange(t *testing.T) {
	vals := []object.Value{0}
	p := Func{
		Objects: object.NewSet(5),
		Writes:  false,
		Body:    func(txn Txn) any { return txn.Read(5) },
	}
	r, _ := run(t, vals, p)
	if r.Err() == nil {
		t.Fatal("out-of-range access accepted")
	}
}

func TestRecorderStopsAfterError(t *testing.T) {
	vals := []object.Value{1, 2}
	p := Func{
		Objects: object.NewSet(0),
		Writes:  true,
		Body: func(txn Txn) any {
			txn.Write(1, 9) // violation
			txn.Write(0, 7) // must be suppressed after the violation
			return nil
		},
	}
	r, _ := run(t, vals, p)
	if r.Err() == nil {
		t.Fatal("violation not detected")
	}
	if vals[0] != 1 {
		t.Fatal("write after violation applied — replicas would diverge nondeterministically")
	}
}

func TestMayWriteDeclarations(t *testing.T) {
	updates := []Procedure{
		WriteOp{}, MAssign{}, CAS{}, DCAS{}, Transfer{},
	}
	queries := []Procedure{
		ReadOp{}, MultiRead{}, Sum{},
	}
	for _, p := range updates {
		if !p.MayWrite() {
			t.Errorf("%T must declare MayWrite", p)
		}
	}
	for _, p := range queries {
		if p.MayWrite() {
			t.Errorf("%T must not declare MayWrite", p)
		}
	}
}

func TestPayloadBytesScalesWithFootprint(t *testing.T) {
	small := PayloadBytes(ReadOp{X: 0})
	large := PayloadBytes(MultiRead{Xs: []object.ID{0, 1, 2, 3}})
	if large <= small {
		t.Fatalf("payload bytes: small=%d large=%d", small, large)
	}
}

// MAssign sorts its objects with slices.Sort, which allocates nothing
// beyond the key slice: applying a two-object assignment (the Recorder
// included) costs 4 allocations and encoding it 1, where sort.Slice's
// closure and reflection cost 6 and 3. The bytes are pinned too: entries
// go out in ascending object order whatever the map's iteration order.
// The allocation counts hold only without -race (make codec-gate).
func TestMAssignAllocs(t *testing.T) {
	p := MAssign{Writes: map[object.ID]object.Value{1: 10, 0: 20}}
	vals := make([]object.Value, 2)
	if n := testing.AllocsPerRun(100, func() { p.Run(NewRecorder(vals, p)) }); n != 4 {
		t.Errorf("%v allocations to apply a two-object MAssign, want 4", n)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { _, _ = p.MarshalWire(buf[:0]) }); n != 1 {
		t.Errorf("%v allocations to encode a two-object MAssign, want 1", n)
	}
	got, err := MAssign{Writes: map[object.ID]object.Value{3: 30, 0: 10, 2: 20}}.MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Count 3, then (object, value) zigzag varints: (0, 10), (2, 20), (3, 30).
	if want := []byte{3, 0, 20, 4, 40, 6, 60}; !bytes.Equal(got, want) {
		t.Fatalf("MarshalWire = %v, want %v", got, want)
	}
}
