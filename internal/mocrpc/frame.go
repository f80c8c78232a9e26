package mocrpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"moc/internal/wire"
)

// The framed protocol; the package doc has its layout.
const (
	frameVersion byte = 1

	bodyJSON, bodyExec = 0, 1

	shapeNone, shapeValue, shapeValues, shapeBool = 0, 1, 2, 3

	maxRequestFrame = 1 << 20
	// maxResponseFrame leaves room for the largest reply, a dump: at
	// about 250 bytes of JSON per record, 75k operations dump 19 MB.
	maxResponseFrame = 256 << 20
	// frameHdr is the room reserved for a frame's length prefix while
	// the body is encoded: 5 uvarint bytes hold lengths below 2^35.
	frameHdr = 5
)

var (
	errBadFrame      = errors.New("mocrpc: malformed frame")
	errFrameTooLarge = errors.New("mocrpc: frame exceeds size limit")
)

// readFrame reads one frame from r into *buf (grown as needed and
// reused across calls) and returns its body, which aliases *buf until
// the next call. A length prefix over limit is refused before anything
// is allocated.
func readFrame(r *bufio.Reader, buf *[]byte, limit int) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("%w: length prefix %d (limit %d)", errFrameTooLarge, n, limit)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty frame", errBadFrame)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// openFrame reserves the length prefix of a frame that starts at len(b).
func openFrame(b []byte, id int64, typ uint64) []byte {
	b = append(b, make([]byte, frameHdr)...)
	b = wire.AppendUvarint(b, uint64(id))
	return wire.AppendUvarint(b, typ)
}

// closeFrame writes the length prefix of the frame opened at start and
// moves the body down against it. A body over limit is taken back out
// of b and reported.
func closeFrame(b []byte, start, limit int) ([]byte, error) {
	n := len(b) - start - frameHdr
	if n > limit {
		return b[:start], fmt.Errorf("%w: %d-byte body (limit %d)", errFrameTooLarge, n, limit)
	}
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	copy(b[start:], hdr[:k])
	copy(b[start+k:], b[start+frameHdr:])
	return b[:len(b)-frameHdr+k], nil
}

// appendJSONFrame appends a frame whose body is v's JSON.
func appendJSONFrame(b []byte, id int64, v any, limit int) ([]byte, error) {
	j, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	start := len(b)
	return closeFrame(append(openFrame(b, id, bodyJSON), j...), start, limit)
}

// appendRequest appends req's frame: an exec call gets the binary body,
// every other op its JSON.
func appendRequest(b []byte, req Request) ([]byte, error) {
	if req.Op != "exec" {
		return appendJSONFrame(b, req.ID, req, maxRequestFrame)
	}
	start := len(b)
	b = openFrame(b, req.ID, bodyExec)
	b = wire.AppendString(b, req.Kind)
	b = wire.AppendUvarint(b, uint64(len(req.Objs)))
	for _, o := range req.Objs {
		b = wire.AppendString(b, o)
	}
	b = wire.AppendInt64s(b, req.Vals)
	b = wire.AppendString(b, req.Level)
	return closeFrame(b, start, maxRequestFrame)
}

// appendResponse appends resp's frame, with the binary body when it
// answers an exec call and the JSON body otherwise.
func appendResponse(b []byte, resp Response, exec bool) ([]byte, error) {
	if !exec {
		return appendJSONFrame(b, resp.ID, resp, maxResponseFrame)
	}
	start := len(b)
	b = openFrame(b, resp.ID, bodyExec)
	b = appendBool(b, resp.OK)
	b = wire.AppendString(b, resp.Err)
	switch {
	case resp.Value != nil:
		b = wire.AppendVarint(wire.AppendUvarint(b, shapeValue), *resp.Value)
	case resp.Values != nil:
		b = wire.AppendInt64s(wire.AppendUvarint(b, shapeValues), resp.Values)
	case resp.Bool != nil:
		b = appendBool(wire.AppendUvarint(b, shapeBool), *resp.Bool)
	default:
		b = wire.AppendUvarint(b, shapeNone)
	}
	b = wire.AppendString(b, resp.Level)
	b = wire.AppendUvarint(b, uint64(len(resp.Responders)))
	for _, r := range resp.Responders {
		b = wire.AppendVarint(b, int64(r))
	}
	switch {
	case resp.IsConsistent == nil:
		b = append(b, 0)
	case *resp.IsConsistent:
		b = append(b, 2)
	default:
		b = append(b, 1)
	}
	return closeFrame(b, start, maxResponseFrame)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decodeHead decodes a body's id and type and, for a JSON body, its
// JSON into v. exec reports a binary exec body, which d is left at.
func decodeHead(body []byte, v any) (d wire.Decoder, id int64, exec bool, err error) {
	d = wire.NewDecoder(body)
	id = int64(d.Uvarint())
	switch typ := d.Uvarint(); {
	case d.Err() != nil:
		return d, id, false, finish(&d)
	case typ == bodyExec:
		return d, id, true, nil
	case typ != bodyJSON:
		return d, id, false, fmt.Errorf("%w: body type %d", errBadFrame, typ)
	}
	if err := json.Unmarshal(body[len(body)-d.Remaining():], v); err != nil {
		return d, id, false, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return d, id, false, nil
}

// finish reports a decoder error or trailing bytes as a malformed frame.
func finish(d *wire.Decoder) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", errBadFrame, err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errBadFrame, d.Remaining())
	}
	return nil
}

// decodeRequest decodes a request body into req, reusing req's Objs
// and Vals arrays; every string it keeps is a copy, not body's bytes.
func decodeRequest(body []byte, req *Request) error {
	objs, vals := req.Objs[:0], req.Vals[:0]
	*req = Request{}
	d, id, exec, err := decodeHead(body, req)
	req.ID = id
	if err != nil || !exec {
		return err
	}
	req.Op = "exec"
	req.Kind = d.String()
	for n := d.ArrayLen(1); n > 0; n-- {
		objs = append(objs, d.String())
	}
	for n := d.ArrayLen(1); n > 0; n-- {
		vals = append(vals, d.Varint())
	}
	req.Objs, req.Vals = objs, vals
	req.Level = d.String()
	return finish(&d)
}

// decodeResponse decodes a reply body into resp.
func decodeResponse(body []byte, resp *Response) error {
	*resp = Response{}
	d, id, exec, err := decodeHead(body, resp)
	resp.ID = id
	if err != nil || !exec {
		return err
	}
	resp.OK = d.Uvarint() != 0
	resp.Err = d.String()
	switch shape := d.Uvarint(); shape {
	case shapeNone:
	case shapeValue:
		v := d.Varint()
		resp.Value = &v
	case shapeValues:
		resp.Values = d.Int64s()
	case shapeBool:
		v := d.Uvarint() != 0
		resp.Bool = &v
	default:
		return fmt.Errorf("%w: value shape %d", errBadFrame, shape)
	}
	resp.Level = d.String()
	for n := d.ArrayLen(1); n > 0; n-- {
		resp.Responders = append(resp.Responders, d.Int())
	}
	if c := d.Uvarint(); c != 0 {
		v := c == 2
		resp.IsConsistent = &v
	}
	return finish(&d)
}
