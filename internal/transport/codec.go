// Frame codec for the TCP transport. Each network message crosses the
// wire as one length-prefixed frame:
//
//	[4-byte big-endian length][1 codec byte][body]
//
// The length counts the codec byte plus the body, so frames
// concatenate into exactly the stream the reader expects (the writer
// coalesces bursts this way). The codec byte is always codecBinary; a
// reader refuses any other value.
//
// The body is: channel string, from varint, to varint, kind string,
// bytes varint, then the payload as a wire `any` slot (uvarint tag +
// the registered type's own encoding). Every protocol payload type is
// registered with internal/wire in its package's wire.go (abcast,
// mlin, recovery, mop).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"moc/internal/wire"
)

// maxFrame bounds a single frame's encoded size; a larger length prefix
// indicates a corrupt or hostile stream and kills the connection.
const maxFrame = 32 << 20

// codecBinary is the frame's codec byte. It is wire format: never
// renumber. Byte 1 is retired (gob), never reuse.
const codecBinary byte = 2

// ErrFrameTooLarge reports a frame whose length prefix exceeds
// maxFrame. The reader treats it as a hostile or corrupt stream and
// closes the connection rather than allocating the promised buffer.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// ErrBadFrame reports a frame that is structurally invalid: an unknown
// codec byte, an empty frame, or a body that fails to decode. The
// reader closes the connection — after framing is lost there is no way
// to resynchronize the stream.
var ErrBadFrame = errors.New("transport: malformed frame")

// wireFrame is the on-the-wire representation of one network.Message,
// tagged with the logical channel that must receive it.
type wireFrame struct {
	Channel string
	From    int
	To      int
	Kind    string
	Payload any
	Bytes   int
}

// frameBuf is a pooled frame buffer. Send encodes into one, the peer
// writer copies it into its write buffer and returns it to the pool, so
// the steady-state send path allocates nothing. The pool holds
// pointers: a *frameBuf converts to `any` without boxing a new
// allocation on every Put.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 512)} }}

func getFrameBuf() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrameBuf(fb *frameBuf) {
	// Don't let one giant frame pin its buffer in the pool forever.
	if cap(fb.b) > maxCoalesce {
		return
	}
	fb.b = fb.b[:0]
	framePool.Put(fb)
}

// encodeFrame appends one encoded frame (length prefix, codec byte,
// body) to fb.b. Encoding happens at Send time so an unregistered
// payload type surfaces as the Send error, not as a silent drop in the
// writer goroutine.
func encodeFrame(f wireFrame, fb *frameBuf) error {
	start := len(fb.b)
	var err error
	fb.b, err = appendBinaryBody(append(fb.b, 0, 0, 0, 0, codecBinary), f)
	if err != nil {
		fb.b = fb.b[:start]
		return fmt.Errorf("transport: encode %q payload %T: %w", f.Kind, f.Payload, err)
	}
	n := len(fb.b) - start - 4 // codec byte + body
	if n > maxFrame {
		fb.b = fb.b[:start]
		return fmt.Errorf("%w: %q frame is %d bytes (limit %d)", ErrFrameTooLarge, f.Kind, n, maxFrame)
	}
	binary.BigEndian.PutUint32(fb.b[start:], uint32(n))
	return nil
}

func appendBinaryBody(b []byte, f wireFrame) ([]byte, error) {
	b = wire.AppendString(b, f.Channel)
	b = wire.AppendVarint(b, int64(f.From))
	b = wire.AppendVarint(b, int64(f.To))
	b = wire.AppendString(b, f.Kind)
	b = wire.AppendVarint(b, int64(f.Bytes))
	return wire.AppendAny(b, f.Payload)
}

// readFrame reads one frame from r into *scratch (grown as needed and
// reused across calls — every decoded value copies out of it) and
// decodes it. Oversized length prefixes return ErrFrameTooLarge and
// malformed frames ErrBadFrame, both before any hostile-length
// allocation; the caller must treat either as fatal for the connection.
func readFrame(r io.Reader, scratch *[]byte) (wireFrame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return wireFrame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return wireFrame{}, fmt.Errorf("%w: length prefix %d (limit %d)", ErrFrameTooLarge, n, maxFrame)
	}
	if n == 0 {
		return wireFrame{}, fmt.Errorf("%w: empty frame", ErrBadFrame)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	body := (*scratch)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return wireFrame{}, err
	}
	if body[0] != codecBinary {
		return wireFrame{}, fmt.Errorf("%w: unknown codec byte %d", ErrBadFrame, body[0])
	}
	return decodeBinaryBody(body[1:])
}

func decodeBinaryBody(body []byte) (wireFrame, error) {
	d := wire.NewDecoder(body)
	f := wireFrame{
		Channel: d.String(),
		From:    d.Int(),
		To:      d.Int(),
		Kind:    d.String(),
		Bytes:   d.Int(),
	}
	f.Payload = d.Any()
	if err := d.Err(); err != nil {
		return wireFrame{}, fmt.Errorf("%w: binary body: %v", ErrBadFrame, err)
	}
	if d.Remaining() != 0 {
		return wireFrame{}, fmt.Errorf("%w: %d trailing bytes after binary body", ErrBadFrame, d.Remaining())
	}
	return f, nil
}
