package mlin

import (
	"fmt"

	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/wire"
)

// Update and query payloads cross the broadcast and query channels,
// which may be real serializing transports (internal/transport);
// register them with the wire registry under their stable tags.
func init() {
	wire.Register(wire.TagMLinUpdate, updatePayload{})
	wire.Register(wire.TagMLinQueryMsg, queryMsg{})
	wire.Register(wire.TagMLinQueryResp, queryResp{})
	wire.Register(wire.TagMLinApplyAck, applyAck{})
}

// appendIDs / decodeIDs encode an []object.ID preserving nil-ness: a
// nil Objs slice means "send everything" (Figure 6 verbatim), so nil
// and empty must survive the round trip distinctly.
func appendIDs(b []byte, ids []object.ID) []byte {
	if ids == nil {
		return wire.AppendUvarint(b, 0)
	}
	b = wire.AppendUvarint(b, 1)
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = wire.AppendVarint(b, int64(id))
	}
	return b
}

func decodeIDs(d *wire.Decoder) []object.ID {
	if d.Uvarint() == 0 || d.Err() != nil {
		return nil
	}
	n := d.ArrayLen(1)
	out := make([]object.ID, n)
	for i := range out {
		out[i] = object.ID(d.Varint())
	}
	return out
}

// MarshalWire implements wire.Marshaler.
func (m updatePayload) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.ReqID)
	b = wire.AppendVarint(b, int64(m.From))
	return wire.AppendAny(b, m.Proc)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *updatePayload) UnmarshalWire(d *wire.Decoder) error {
	m.ReqID = d.Varint()
	m.From = d.Int()
	v := d.Any()
	if err := d.Err(); err != nil {
		return err
	}
	pr, ok := v.(mop.Procedure)
	if !ok {
		return fmt.Errorf("mlin: wire payload procedure slot holds %T", v)
	}
	m.Proc = pr
	return nil
}

// MarshalWire implements wire.Marshaler.
func (m queryMsg) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.ReqID)
	return appendIDs(b, m.Objs), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *queryMsg) UnmarshalWire(d *wire.Decoder) error {
	m.ReqID = d.Varint()
	m.Objs = decodeIDs(d)
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m applyAck) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.ReqID)
	return wire.AppendVarint(b, int64(m.From)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *applyAck) UnmarshalWire(d *wire.Decoder) error {
	m.ReqID = d.Varint()
	m.From = d.Int()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m queryResp) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.ReqID)
	b = appendIDs(b, m.Objs)
	b = wire.AppendInt64s(b, m.Values)
	b = wire.AppendInt64s(b, m.TS)
	return wire.AppendInt64s(b, m.Applied), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *queryResp) UnmarshalWire(d *wire.Decoder) error {
	m.ReqID = d.Varint()
	m.Objs = decodeIDs(d)
	m.Values = d.Int64s()
	m.TS = d.Int64s()
	m.Applied = d.Int64s()
	return d.Err()
}
