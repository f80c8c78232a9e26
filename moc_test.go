package moc_test

import (
	"encoding/json"
	"testing"

	"moc"
)

func TestFacadeQuickstart(t *testing.T) {
	s, err := moc.New(moc.Config{
		Procs:       3,
		Objects:     []string{"x", "y"},
		Consistency: moc.MLinearizable,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	p0, err := s.Process(0)
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
	x, err := s.Object("x")
	if err != nil {
		t.Fatalf("Object: %v", err)
	}
	y, _ := s.Object("y")

	if err := p0.MAssign(map[moc.ObjectID]moc.Value{x: 1, y: 2}); err != nil {
		t.Fatalf("MAssign: %v", err)
	}
	ok, err := p0.DCAS(x, y, 1, 2, 10, 20)
	if err != nil || !ok {
		t.Fatalf("DCAS = %v, %v", ok, err)
	}

	p1, _ := s.Process(1)
	vals, err := p1.MultiRead(x, y)
	if err != nil {
		t.Fatalf("MultiRead: %v", err)
	}
	if vals[0] != 10 || vals[1] != 20 {
		t.Fatalf("MultiRead = %v", vals)
	}

	res, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.OK {
		t.Fatal("verification failed")
	}

	// The exact checkers are reachable through the facade too.
	lin, err := moc.CheckMLinearizable(res.History)
	if err != nil || !lin.Admissible {
		t.Fatalf("CheckMLinearizable = %+v, %v", lin, err)
	}
	sc, err := moc.CheckMSequential(res.History)
	if err != nil || !sc.Admissible {
		t.Fatalf("CheckMSequential = %+v, %v", sc, err)
	}
	norm, err := moc.CheckMNormal(res.History)
	if err != nil || !norm.Admissible {
		t.Fatalf("CheckMNormal = %+v, %v", norm, err)
	}
}

func TestFacadeCustomProcedure(t *testing.T) {
	s, err := moc.New(moc.Config{Procs: 1, Objects: []string{"a", "b"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	p, _ := s.Process(0)
	a, _ := s.Object("a")
	b, _ := s.Object("b")

	// A custom multi-object read-modify-write: move everything from a
	// to b.
	drain := moc.Func{
		Objects: moc.NewObjectSet(a, b),
		Writes:  true,
		Body: func(txn moc.Txn) any {
			v := txn.Read(a)
			txn.Write(a, 0)
			txn.Write(b, txn.Read(b)+v)
			return v
		},
	}
	if err := p.Write(a, 7); err != nil {
		t.Fatalf("Write: %v", err)
	}
	res, err := p.Exec(drain, moc.ExecOptions{})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Value.(moc.Value) != 7 {
		t.Fatalf("drained %v, want 7", res)
	}
	bv, _ := p.Read(b)
	if bv != 7 {
		t.Fatalf("b = %d, want 7", bv)
	}
}

func TestFacadeHistoryJSONRoundTrip(t *testing.T) {
	s, err := moc.New(moc.Config{Procs: 2, Objects: []string{"x"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	p, _ := s.Process(0)
	if err := p.Write(0, 5); err != nil {
		t.Fatalf("Write: %v", err)
	}
	h, err := s.History()
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := moc.DecodeHistory(data)
	if err != nil {
		t.Fatalf("DecodeHistory: %v", err)
	}
	if !h.EquivalentTo(back) {
		t.Fatal("round trip broke equivalence")
	}
}

func TestFacadeTokenBroadcast(t *testing.T) {
	s, err := moc.New(moc.Config{
		Procs: 3, Objects: []string{"x"},
		Consistency: moc.MSequential, Broadcast: moc.TokenBroadcast,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	p, _ := s.Process(1)
	if err := p.Write(0, 9); err != nil {
		t.Fatalf("Write: %v", err)
	}
	v, err := p.Read(0)
	if err != nil || v != 9 {
		t.Fatalf("Read = %d, %v", v, err)
	}
	res, err := s.Verify()
	if err != nil || !res.OK {
		t.Fatalf("Verify = %+v, %v", res, err)
	}
}
