package mop

import (
	"slices"

	"moc/internal/object"
	"moc/internal/wire"
)

// The declarative procedures are serializable-by-value, so they can
// cross a real wire inside protocol payloads; register them with the
// wire registry under their stable tags. Func is deliberately
// absent: a closure cannot be marshalled, so Func-based m-operations
// only run over the in-process simulated network.
func init() {
	wire.Register(wire.TagReadOp, ReadOp{})
	wire.Register(wire.TagWriteOp, WriteOp{})
	wire.Register(wire.TagMultiRead, MultiRead{})
	wire.Register(wire.TagSum, Sum{})
	wire.Register(wire.TagMAssign, MAssign{})
	wire.Register(wire.TagCAS, CAS{})
	wire.Register(wire.TagDCAS, DCAS{})
	wire.Register(wire.TagTransfer, Transfer{})
}

func appendIDs(b []byte, ids []object.ID) []byte {
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = wire.AppendVarint(b, int64(id))
	}
	return b
}

func decodeIDs(d *wire.Decoder) []object.ID {
	n := d.ArrayLen(1)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]object.ID, n)
	for i := range out {
		out[i] = object.ID(d.Varint())
	}
	return out
}

// MarshalWire implements wire.Marshaler.
func (o ReadOp) MarshalWire(b []byte) ([]byte, error) {
	return wire.AppendVarint(b, int64(o.X)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *ReadOp) UnmarshalWire(d *wire.Decoder) error {
	o.X = object.ID(d.Varint())
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (o WriteOp) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(o.X))
	return wire.AppendVarint(b, o.V), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *WriteOp) UnmarshalWire(d *wire.Decoder) error {
	o.X = object.ID(d.Varint())
	o.V = d.Varint()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (o MultiRead) MarshalWire(b []byte) ([]byte, error) {
	return appendIDs(b, o.Xs), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *MultiRead) UnmarshalWire(d *wire.Decoder) error {
	o.Xs = decodeIDs(d)
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (o Sum) MarshalWire(b []byte) ([]byte, error) {
	return appendIDs(b, o.Xs), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *Sum) UnmarshalWire(d *wire.Decoder) error {
	o.Xs = decodeIDs(d)
	return d.Err()
}

// MarshalWire implements wire.Marshaler. Entries are encoded in
// ascending object order so identical assignments produce identical
// bytes (map iteration order must not leak onto the wire).
func (o MAssign) MarshalWire(b []byte) ([]byte, error) {
	xs := make([]object.ID, 0, len(o.Writes))
	for x := range o.Writes {
		xs = append(xs, x)
	}
	slices.Sort(xs)
	b = wire.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = wire.AppendVarint(b, int64(x))
		b = wire.AppendVarint(b, o.Writes[x])
	}
	return b, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *MAssign) UnmarshalWire(d *wire.Decoder) error {
	n := d.ArrayLen(2)
	if d.Err() != nil || n == 0 {
		return d.Err()
	}
	o.Writes = make(map[object.ID]object.Value, n)
	for i := 0; i < n; i++ {
		x := object.ID(d.Varint())
		o.Writes[x] = d.Varint()
	}
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (o CAS) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(o.X))
	b = wire.AppendVarint(b, o.Old)
	return wire.AppendVarint(b, o.New), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *CAS) UnmarshalWire(d *wire.Decoder) error {
	o.X = object.ID(d.Varint())
	o.Old = d.Varint()
	o.New = d.Varint()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (o DCAS) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(o.X1))
	b = wire.AppendVarint(b, int64(o.X2))
	b = wire.AppendVarint(b, o.Old1)
	b = wire.AppendVarint(b, o.Old2)
	b = wire.AppendVarint(b, o.New1)
	return wire.AppendVarint(b, o.New2), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *DCAS) UnmarshalWire(d *wire.Decoder) error {
	o.X1 = object.ID(d.Varint())
	o.X2 = object.ID(d.Varint())
	o.Old1 = d.Varint()
	o.Old2 = d.Varint()
	o.New1 = d.Varint()
	o.New2 = d.Varint()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (o Transfer) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(o.From))
	b = wire.AppendVarint(b, int64(o.To))
	return wire.AppendVarint(b, o.Amount), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *Transfer) UnmarshalWire(d *wire.Decoder) error {
	o.From = object.ID(d.Varint())
	o.To = object.ID(d.Varint())
	o.Amount = d.Varint()
	return d.Err()
}
