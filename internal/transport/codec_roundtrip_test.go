package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"moc/internal/mop"
	"moc/internal/wire"

	// Each protocol package registers its wire payloads in an init
	// function; importing them populates the registry this test sweeps.
	_ "moc/internal/abcast"
	_ "moc/internal/mlin"
	_ "moc/internal/recovery"
	_ "moc/internal/shard"
)

// expectedKinds is the closed list of payload types that must be
// registered for the TCP transport to carry the full protocol suite. If
// a package stops registering one of these — or a new payload ships
// without joining this list — the coverage check below fails.
var expectedKinds = []string{
	// abcast: fixed sequencer.
	"abcast.seqRequest", "abcast.seqOrder", "abcast.seqSubmit",
	"abcast.seqHB", "abcast.seqSyncReq", "abcast.seqSyncResp", "abcast.seqNewView",
	// abcast: Lamport clocks.
	"abcast.lamportSubmit", "abcast.lamportData", "abcast.lamportAck",
	// abcast: token ring.
	"abcast.tokenMsg", "abcast.tokenOrder",
	// abcast: batching layer.
	"abcast.BatchMsg",
	// Protocol updates and queries.
	"mlin.updatePayload", "mlin.queryMsg", "mlin.queryResp", "mlin.applyAck",
	// Checkpoint transfer.
	"recovery.xferReq", "recovery.xferResp",
	// Cross-shard ticket/close/commit merge.
	"shard.Ticket", "shard.Close", "shard.Commit",
	// Declarative procedures riding inside update payloads.
	"mop.ReadOp", "mop.WriteOp", "mop.MultiRead", "mop.Sum",
	"mop.MAssign", "mop.CAS", "mop.DCAS", "mop.Transfer",
}

// fill populates v deterministically: scalars from a counter, slices
// with two elements, maps with one entry, and interface slots with a
// registered mop procedure sample (both `any` and mop.Procedure fields
// accept it). Only exported (settable) fields are touched.
func fill(t testing.TB, v reflect.Value, ctr *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), ctr)
	case reflect.Interface:
		*ctr++
		sample := reflect.ValueOf(mop.WriteOp{X: 1, V: *ctr})
		if !sample.Type().Implements(v.Type()) {
			t.Fatalf("no canned sample implements interface field type %v", v.Type())
		}
		v.Set(sample)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(t, f, ctr)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), ctr)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k := reflect.New(v.Type().Key()).Elem()
		fill(t, k, ctr)
		val := reflect.New(v.Type().Elem()).Elem()
		fill(t, val, ctr)
		m.SetMapIndex(k, val)
		v.Set(m)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*ctr++
		v.SetInt(*ctr)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*ctr++
		v.SetUint(uint64(*ctr))
	case reflect.Float32, reflect.Float64:
		*ctr++
		v.SetFloat(float64(*ctr) / 2)
	case reflect.String:
		*ctr++
		v.SetString(fmt.Sprintf("s%d", *ctr))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fill: unsupported kind %v (%v)", v.Kind(), v.Type())
	}
}

// encodeFrameBytes is the test convenience wrapper around the pooled
// encode path: encode one frame and return a fresh byte slice.
func encodeFrameBytes(t testing.TB, f wireFrame) ([]byte, error) {
	t.Helper()
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	if err := encodeFrame(f, fb); err != nil {
		return nil, err
	}
	return append([]byte(nil), fb.b...), nil
}

// TestCodecRoundTripsEveryRegisteredKind builds a non-trivial instance
// of every payload type in the wire registry, carries it through
// encodeFrame/readFrame inside a wireFrame, and requires the decoded
// frame — metadata and payload — to be deeply equal to what was sent.
func TestCodecRoundTripsEveryRegisteredKind(t *testing.T) {
	types := wire.Types()
	byName := make(map[string]reflect.Type, len(types))
	for _, typ := range types {
		byName[typ.String()] = typ
	}
	for _, want := range expectedKinds {
		if _, ok := byName[want]; !ok {
			t.Errorf("wire kind %s is no longer registered", want)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	t.Run("binary", func(t *testing.T) {
		var ctr int64
		for _, typ := range types {
			t.Run(typ.String(), func(t *testing.T) {
				pv := reflect.New(typ).Elem()
				fill(t, pv, &ctr)
				in := wireFrame{
					Channel: "codec-test",
					From:    3,
					To:      5,
					Kind:    "kind." + typ.String(),
					Payload: pv.Interface(),
					Bytes:   64,
				}
				buf, err := encodeFrameBytes(t, in)
				if err != nil {
					t.Fatalf("encodeFrame: %v", err)
				}
				var scratch []byte
				out, err := readFrame(bytes.NewReader(buf), &scratch)
				if err != nil {
					t.Fatalf("readFrame: %v", err)
				}
				if !reflect.DeepEqual(in, out) {
					t.Fatalf("round trip mutated the frame:\n sent %#v\n got  %#v", in, out)
				}
				if got := reflect.TypeOf(out.Payload); got != typ {
					t.Fatalf("payload decoded as %v, want %v", got, typ)
				}
			})
		}
	})
}

// TestCodecPreservesNilObjectList pins the m-lin full-copy query
// convention: a nil Objs slice means "send everything" (Figure 6), so
// nil and empty must stay distinguishable on the wire. The
// payload crosses as the exported frame metadata cannot carry it — an
// mlin.queryMsg with Objs left nil.
func TestCodecPreservesNilObjectList(t *testing.T) {
	types := wire.Types()
	var qm reflect.Type
	for _, typ := range types {
		if typ.String() == "mlin.queryMsg" {
			qm = typ
		}
	}
	if qm == nil {
		t.Fatal("mlin.queryMsg not registered")
	}
	pv := reflect.New(qm).Elem()
	pv.Field(0).SetInt(77) // ReqID; Objs stays nil
	t.Run("binary", func(t *testing.T) {
		in := wireFrame{Channel: "mlin.query", Kind: "mlin.query", Payload: pv.Interface(), Bytes: 8}
		buf, err := encodeFrameBytes(t, in)
		if err != nil {
			t.Fatalf("encodeFrame: %v", err)
		}
		var scratch []byte
		out, err := readFrame(bytes.NewReader(buf), &scratch)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		objs := reflect.ValueOf(out.Payload).Field(1)
		if !objs.IsNil() {
			t.Fatalf("nil Objs decoded as non-nil %#v — full-copy queries would stop requesting everything", objs.Interface())
		}
	})
}

// TestCodecStreamHasNoPerFrameDescriptorOverhead is the regression gate
// against per-stream type descriptors sneaking onto the hot path:
// encoding the same frame twice must produce identical bytes of
// identical (small) size — a codec that amortizes descriptors across a
// stream would shrink the second frame, and one that re-sends them
// would balloon both. The size cap is deliberately tight: metadata plus
// a two-field payload must fit in far less than a self-describing
// encoding's ~200 bytes.
func TestCodecStreamHasNoPerFrameDescriptorOverhead(t *testing.T) {
	frame := wireFrame{
		Channel: "abcast",
		From:    1,
		To:      2,
		Kind:    "abc.req",
		Payload: mop.WriteOp{X: 4, V: 99},
		Bytes:   32,
	}
	first, err := encodeFrameBytes(t, frame)
	if err != nil {
		t.Fatalf("encodeFrame: %v", err)
	}
	second, err := encodeFrameBytes(t, frame)
	if err != nil {
		t.Fatalf("encodeFrame: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("same frame encoded differently across calls:\n %x\n %x", first, second)
	}
	const cap = 40 // 5B header + channel/kind strings + varint metadata + tagged payload
	if len(first) > cap {
		t.Fatalf("frame is %d bytes (cap %d) — per-frame descriptor overhead is back", len(first), cap)
	}
	// Both encodings must stay readable when concatenated, since frame
	// concatenation is the writer's coalescing format.
	stream := append(append([]byte(nil), first...), second...)
	var scratch []byte
	r := bytes.NewReader(stream)
	for i := 0; i < 2; i++ {
		out, err := readFrame(r, &scratch)
		if err != nil {
			t.Fatalf("frame %d of coalesced stream: %v", i, err)
		}
		if !reflect.DeepEqual(out, frame) {
			t.Fatalf("frame %d mutated: %#v", i, out)
		}
	}
}
