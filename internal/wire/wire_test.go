package wire

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// testTag is where this package's own tests register their kinds, far
// from every protocol block in tags.go.
const testTag Tag = 2000

// testKind has the shape every protocol payload has: a value Marshaler
// whose pointer is the Unmarshaler.
type testKind struct{ N int64 }

func (k testKind) MarshalWire(b []byte) ([]byte, error) { return AppendVarint(b, k.N), nil }

func (k *testKind) UnmarshalWire(d *Decoder) error {
	k.N = d.Varint()
	return d.Err()
}

type otherKind struct{ S string }

func (k otherKind) MarshalWire(b []byte) ([]byte, error) { return AppendString(b, k.S), nil }

func (k *otherKind) UnmarshalWire(d *Decoder) error {
	k.S = d.String()
	return d.Err()
}

// noMarshal can be decoded but not encoded.
type noMarshal struct{}

func (*noMarshal) UnmarshalWire(d *Decoder) error { return d.Err() }

// noUnmarshal can be encoded but not decoded.
type noUnmarshal struct{}

func (noUnmarshal) MarshalWire(b []byte) ([]byte, error) { return b, nil }

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

func TestRegisterRejectsContractViolations(t *testing.T) {
	Register(testTag, testKind{})
	before := Types()
	mustPanic(t, "built-in range", func() { Register(FirstKindTag-1, otherKind{}) })
	mustPanic(t, "does not implement wire.Marshaler", func() { Register(testTag+1, noMarshal{}) })
	mustPanic(t, "does not implement wire.Unmarshaler", func() { Register(testTag+1, noUnmarshal{}) })
	mustPanic(t, "claimed by both", func() { Register(testTag, otherKind{}) })
	mustPanic(t, "registered twice", func() { Register(testTag+1, testKind{}) })
	if after := Types(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected registrations changed the registry: %v -> %v", before, after)
	}
	if _, ok := TagOf(otherKind{}); ok {
		t.Fatal("otherKind was registered by a rejected call")
	}
}

func TestRegisterSameTypeSameTagIsNoOp(t *testing.T) {
	Register(testTag, testKind{})
	n := len(Types())
	Register(testTag, testKind{})
	if got := len(Types()); got != n {
		t.Fatalf("re-registration grew Types() from %d to %d", n, got)
	}
	if tag, ok := TagOf(testKind{}); !ok || tag != testTag {
		t.Fatalf("TagOf(testKind{}) = %d, %v; want %d, true", tag, ok, testTag)
	}
}

// builtins has one value for every built-in `any` slot. Empty
// non-nil slices are left out: they decode as nil by design.
func builtins() []any {
	return []any{
		nil,
		false,
		true,
		int64(math.MinInt64),
		int64(1 << 40),
		int(-7),
		"",
		"héllo",
		[]byte(nil),
		[]byte{0, 1, 255},
		0.0,
		math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_dead_beef), // a NaN with payload bits
		uint64(math.MaxUint64),
		[]int64(nil),
		[]int64{0, -1, math.MaxInt64, math.MinInt64},
	}
}

func TestAnyRoundTripsBuiltins(t *testing.T) {
	for _, v := range builtins() {
		b, err := AppendAny(nil, v)
		if err != nil {
			t.Fatalf("AppendAny(%#v): %v", v, err)
		}
		d := NewDecoder(b)
		got := d.Any()
		if err := d.Err(); err != nil {
			t.Fatalf("decode %#v: %v", v, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("decode %#v left %d bytes", v, d.Remaining())
		}
		if f, ok := v.(float64); ok {
			g, ok := got.(float64)
			if !ok || math.Float64bits(g) != math.Float64bits(f) {
				t.Fatalf("float64 %x decoded as %#v", math.Float64bits(f), got)
			}
			continue
		}
		if !reflect.DeepEqual(got, v) || reflect.TypeOf(got) != reflect.TypeOf(v) {
			t.Fatalf("%T %#v decoded as %T %#v", v, v, got, got)
		}
	}
}

// TestDecoderRejectsEveryStrictPrefix decodes every strict prefix of a
// run holding every built-in slot and a registered kind: each must end
// in a Decoder error, never a panic and never a clean decode.
func TestDecoderRejectsEveryStrictPrefix(t *testing.T) {
	Register(testTag, testKind{})
	values := append(builtins(), testKind{N: -300})
	var full []byte
	for _, v := range values {
		var err error
		if full, err = AppendAny(full, v); err != nil {
			t.Fatalf("AppendAny(%#v): %v", v, err)
		}
	}
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		for range values {
			d.Any()
		}
		if err := d.Err(); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrTruncated or ErrCorrupt", cut, len(full), err)
		}
	}
}

// TestArrayLenRejectsHostileCount sends a count prefix promising far
// more elements than the input holds: the decoder must refuse it before
// allocating the promised slice.
func TestArrayLenRejectsHostileCount(t *testing.T) {
	const count = 1 << 20 // 8 MiB of int64s, backed by three bytes
	b := append(AppendUvarint(nil, count), 1, 2, 3)
	d := NewDecoder(b)
	if n := d.ArrayLen(1); n != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("ArrayLen = %d, err %v; want 0, ErrCorrupt", n, d.Err())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 16; i++ {
		d := NewDecoder(b)
		if got := d.Int64s(); got != nil || !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("Int64s = %d elements, err %v; want nil, ErrCorrupt", len(got), d.Err())
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= count {
		t.Fatalf("16 hostile decodes allocated %d bytes", grew)
	}
}
