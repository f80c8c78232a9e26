package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"moc/internal/mop"
	"moc/internal/wire"
)

// retiredCodecByte is the codec byte the deleted gob encoding used. No
// build sends it any more, and readFrame must refuse it.
const retiredCodecByte byte = 1

// FuzzReadFrame throws arbitrary byte streams at the frame reader. The
// seed corpus is a well-formed frame for every registered wire kind,
// the same frame under the retired codec byte, plus truncations and
// hostile prefixes, so the fuzzer starts from the full payload surface.
// The invariant is the wire-path hardening contract: any input either
// decodes or returns an error — never panics, and never allocates a
// buffer the input didn't pay for — and whatever decodes re-encodes to
// a fixed point. (The seed corpus runs as ordinary subtests on every
// `go test`; `go test -fuzz=FuzzReadFrame` explores from there.)
func FuzzReadFrame(f *testing.F) {
	var ctr int64
	for _, typ := range wire.Types() {
		pv := reflect.New(typ).Elem()
		fill(f, pv, &ctr)
		fr := wireFrame{
			Channel: "fuzz",
			From:    0,
			To:      1,
			Kind:    "fuzz." + typ.String(),
			Payload: pv.Interface(),
			Bytes:   8,
		}
		b, err := encodeFrameBytes(f, fr)
		if err != nil {
			f.Fatalf("seed %s: %v", typ, err)
		}
		// The same frame under the retired gob byte must be refused.
		retired := append([]byte(nil), b...)
		retired[4] = retiredCodecByte
		var scratch []byte
		if _, err := readFrame(bytes.NewReader(retired), &scratch); !errors.Is(err, ErrBadFrame) {
			f.Fatalf("seed %s under the retired codec byte: err = %v, want ErrBadFrame", typ, err)
		}
		for _, s := range [][]byte{b, retired} {
			f.Add(s)
			f.Add(s[:len(s)/2])    // truncated mid-body
			f.Add(s[:4])           // header only
			f.Add(append(s, s...)) // two concatenated frames (reader takes the first)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                          // empty frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})              // hostile length prefix
	f.Add([]byte{0, 0, 0, 2, 0x7F, 0x00})              // unknown codec byte
	f.Add([]byte{0, 0, 0, 3, codecBinary, 0xFF, 0xFF}) // corrupt binary body

	// Payload tags no registered kind owns: the retired 40, framed the way
	// an older build sent its m-SC update (ReqID, From, procedure), and
	// the next free tag in mlin's block. Both must be rejected, never
	// decoded as some other kind.
	write, err := wire.AppendAny(nil, mop.WriteOp{X: 1, V: 2})
	if err != nil {
		f.Fatalf("seed payload: %v", err)
	}
	for _, tag := range []wire.Tag{40, wire.TagMLinApplyAck + 1} {
		body := wire.AppendVarint(wire.AppendVarint(nil, 7), 0) // ReqID, From
		b := unownedFrame(tag, append(body, write...))
		rejectSeed(f, b, tag)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:4])
		f.Add(append(b, b...))
	}
	// Tags 28–31 are retired too: the token ring's failure-detector
	// heartbeat, sync request, sync response and catch-up. Their frames,
	// bodied as an older build sent them (a response or catch-up carries
	// a generation and one order {Gen, Seq, From, SubID, payload}), must
	// be rejected under either codec byte, with the truncations every
	// registered kind gets.
	orders := wire.AppendVarint(nil, 1) // Gen
	orders = wire.AppendUvarint(orders, 1)
	for _, v := range []int64{1, 5, 2, 9} { // the order's Gen, Seq, From, SubID
		orders = wire.AppendVarint(orders, v)
	}
	orders = append(orders, write...)
	for _, r := range []struct {
		tag  wire.Tag
		body []byte
	}{{28, nil}, {29, wire.AppendVarint(nil, 1)}, {30, orders}, {31, orders}} {
		b := unownedFrame(r.tag, r.body)
		retired := append([]byte(nil), b...)
		retired[4] = retiredCodecByte
		for _, s := range [][]byte{b, retired} {
			rejectSeed(f, s, r.tag)
			f.Add(s)
			f.Add(s[:len(s)/2])
			f.Add(s[:4])
			f.Add(append(s, s...))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch []byte
		fr, err := readFrame(bytes.NewReader(data), &scratch)
		if err != nil {
			return // rejected is fine; panicking is the bug
		}
		// Whatever the reader accepts, the send path must encode, and
		// that encoding is a fixed point: encode(decode(encode(x)))
		// equals encode(x) byte for byte.
		first, err := encodeFrameBytes(t, fr)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		var scratch2 []byte
		again, err := readFrame(bytes.NewReader(first), &scratch2)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		second, err := encodeFrameBytes(t, again)
		if err != nil {
			t.Fatalf("decoded re-encoding failed to encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode(decode(encode(x))) differs from encode(x):\n %x\n %x", first, second)
		}
	})
}

// unownedFrame frames body as the payload of tag, one no registered
// kind owns.
func unownedFrame(tag wire.Tag, body []byte) []byte {
	b := []byte{0, 0, 0, 0, codecBinary}
	b = wire.AppendString(b, "fuzz")
	b = wire.AppendVarint(b, 0)
	b = wire.AppendVarint(b, 1)
	b = wire.AppendString(b, "fuzz.unowned")
	b = wire.AppendVarint(b, 8)
	b = wire.AppendUvarint(b, uint64(tag))
	b = append(b, body...)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// rejectSeed fails the fuzz setup unless readFrame refuses frame, a
// frame carrying the unowned payload tag.
func rejectSeed(f *testing.F, frame []byte, tag wire.Tag) {
	f.Helper()
	var scratch []byte
	if _, err := readFrame(bytes.NewReader(frame), &scratch); !errors.Is(err, ErrBadFrame) {
		f.Fatalf("frame with unowned tag %d: err = %v, want ErrBadFrame", tag, err)
	}
}
