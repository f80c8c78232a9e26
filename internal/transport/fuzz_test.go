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

// FuzzReadFrame throws arbitrary byte streams at the frame reader. The
// seed corpus is a well-formed frame for every registered wire kind
// under both codecs, plus truncations and hostile prefixes, so the
// fuzzer starts from the full payload surface. The invariant is the
// wire-path hardening contract: any input either decodes or returns an
// error — never panics, and never allocates a buffer the input didn't
// pay for. (The seed corpus runs as ordinary subtests on every `go
// test`; `go test -fuzz=FuzzReadFrame` explores from there.)
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
		for _, codec := range []string{CodecBinary, CodecGob} {
			b, err := encodeFrameBytes(f, codec, fr)
			if err != nil {
				f.Fatalf("seed %s/%s: %v", codec, typ, err)
			}
			f.Add(b)
			f.Add(b[:len(b)/2])    // truncated mid-body
			f.Add(b[:4])           // header only
			f.Add(append(b, b...)) // two concatenated frames (reader takes the first)
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
	for _, tag := range []wire.Tag{40, wire.TagMLinApplyAck + 1} {
		b := []byte{0, 0, 0, 0, codecBinary}
		b = wire.AppendString(b, "fuzz")
		b = wire.AppendVarint(b, 0)
		b = wire.AppendVarint(b, 1)
		b = wire.AppendString(b, "fuzz.unowned")
		b = wire.AppendVarint(b, 8)
		b = wire.AppendUvarint(b, uint64(tag))
		b = wire.AppendVarint(b, 7) // ReqID
		b = wire.AppendVarint(b, 0) // From
		b, err := wire.AppendAny(b, mop.WriteOp{X: 1, V: 2})
		if err != nil {
			f.Fatalf("seed tag %d: %v", tag, err)
		}
		binary.BigEndian.PutUint32(b, uint32(len(b)-4))
		var scratch []byte
		if _, err := readFrame(bytes.NewReader(b), &scratch); !errors.Is(err, ErrBadFrame) {
			f.Fatalf("frame with unowned tag %d: err = %v, want ErrBadFrame", tag, err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:4])
		f.Add(append(b, b...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch []byte
		fr, err := readFrame(bytes.NewReader(data), &scratch)
		if err != nil {
			return // rejected is fine; panicking is the bug
		}
		// Whatever decoded must survive the send path without panicking
		// (it may legitimately error, e.g. a gob frame whose payload
		// shape the binary codec does not carry).
		fb := getFrameBuf()
		defer putFrameBuf(fb)
		if err := encodeFrame(codecBinary, fr, fb); err == nil {
			// And a clean re-encode must decode again.
			if _, err := readFrame(bytes.NewReader(fb.b), &scratch); err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
		}
	})
}
