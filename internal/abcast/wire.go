package abcast

import "moc/internal/wire"

// Every broadcast-layer payload that can cross a process boundary is
// registered with the wire registry under its stable tag (see
// wire/tags.go) so a serializing transport (internal/transport) can
// marshal the Link's `any` payloads with the binary codec. Registration
// is keyed by tag, so the unexported types stay private to this package while
// remaining wire-codable, and the registry lets the codec round-trip
// test enumerate every kind. The MarshalWire/UnmarshalWire
// implementations below append into caller-provided buffers so the
// steady-state send path allocates nothing.
func init() {
	// Fixed sequencer.
	wire.Register(wire.TagSeqRequest, seqRequest{})
	wire.Register(wire.TagSeqOrder, seqOrder{})
	wire.Register(wire.TagSeqSubmit, seqSubmit{})
	wire.Register(wire.TagSeqHB, seqHB{})
	wire.Register(wire.TagSeqSyncReq, seqSyncReq{})
	wire.Register(wire.TagSeqSyncResp, seqSyncResp{})
	wire.Register(wire.TagSeqNewView, seqNewView{})
	// Lamport clocks.
	wire.Register(wire.TagLamportSubmit, lamportSubmit{})
	wire.Register(wire.TagLamportData, lamportData{})
	wire.Register(wire.TagLamportAck, lamportAck{})
	// Token ring.
	wire.Register(wire.TagTokenMsg, tokenMsg{})
	wire.Register(wire.TagTokenOrder, tokenOrder{})
	// Batching layer.
	wire.Register(wire.TagBatchMsg, BatchMsg{})
}

// Fixed sequencer.

// MarshalWire implements wire.Marshaler.
func (m seqRequest) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(m.Origin))
	b = wire.AppendVarint(b, m.ReqID)
	b, err := wire.AppendAny(b, m.Payload)
	if err != nil {
		return nil, err
	}
	return wire.AppendVarint(b, int64(m.Bytes)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *seqRequest) UnmarshalWire(d *wire.Decoder) error {
	m.Origin = d.Int()
	m.ReqID = d.Varint()
	m.Payload = d.Any()
	m.Bytes = d.Int()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m seqOrder) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(m.View))
	b = wire.AppendVarint(b, m.Seq)
	b = wire.AppendVarint(b, int64(m.Origin))
	b = wire.AppendVarint(b, m.ReqID)
	b, err := wire.AppendAny(b, m.Payload)
	if err != nil {
		return nil, err
	}
	return wire.AppendVarint(b, int64(m.Bytes)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *seqOrder) UnmarshalWire(d *wire.Decoder) error {
	m.View = d.Int()
	m.Seq = d.Varint()
	m.Origin = d.Int()
	m.ReqID = d.Varint()
	m.Payload = d.Any()
	m.Bytes = d.Int()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m seqSubmit) MarshalWire(b []byte) ([]byte, error) {
	b, err := wire.AppendAny(b, m.Payload)
	if err != nil {
		return nil, err
	}
	return wire.AppendVarint(b, int64(m.Bytes)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *seqSubmit) UnmarshalWire(d *wire.Decoder) error {
	m.Payload = d.Any()
	m.Bytes = d.Int()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m seqHB) MarshalWire(b []byte) ([]byte, error) { return b, nil }

// UnmarshalWire implements wire.Unmarshaler.
func (m *seqHB) UnmarshalWire(d *wire.Decoder) error { return d.Err() }

// MarshalWire implements wire.Marshaler.
func (m seqSyncReq) MarshalWire(b []byte) ([]byte, error) {
	return wire.AppendVarint(b, int64(m.View)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *seqSyncReq) UnmarshalWire(d *wire.Decoder) error {
	m.View = d.Int()
	return d.Err()
}

// appendSeqOrders / decodeSeqOrders share the order-log encoding of
// seqSyncResp and seqNewView.
func appendSeqOrders(b []byte, orders []seqOrder) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(orders)))
	var err error
	for i := range orders {
		if b, err = orders[i].MarshalWire(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeSeqOrders(d *wire.Decoder) []seqOrder {
	n := d.ArrayLen(5) // a seqOrder is at least 4 varints + a payload tag
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]seqOrder, n)
	for i := range out {
		if err := out[i].UnmarshalWire(d); err != nil {
			return nil
		}
	}
	return out
}

// MarshalWire implements wire.Marshaler.
func (m seqSyncResp) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(m.View))
	return appendSeqOrders(b, m.Orders)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *seqSyncResp) UnmarshalWire(d *wire.Decoder) error {
	m.View = d.Int()
	m.Orders = decodeSeqOrders(d)
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m seqNewView) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(m.View))
	return appendSeqOrders(b, m.Orders)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *seqNewView) UnmarshalWire(d *wire.Decoder) error {
	m.View = d.Int()
	m.Orders = decodeSeqOrders(d)
	return d.Err()
}

// Lamport clocks.

// MarshalWire implements wire.Marshaler.
func (m lamportSubmit) MarshalWire(b []byte) ([]byte, error) {
	b, err := wire.AppendAny(b, m.Payload)
	if err != nil {
		return nil, err
	}
	return wire.AppendVarint(b, int64(m.Bytes)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *lamportSubmit) UnmarshalWire(d *wire.Decoder) error {
	m.Payload = d.Any()
	m.Bytes = d.Int()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m lamportData) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.TS)
	b = wire.AppendVarint(b, int64(m.From))
	b, err := wire.AppendAny(b, m.Payload)
	if err != nil {
		return nil, err
	}
	return wire.AppendVarint(b, int64(m.Bytes)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *lamportData) UnmarshalWire(d *wire.Decoder) error {
	m.TS = d.Varint()
	m.From = d.Int()
	m.Payload = d.Any()
	m.Bytes = d.Int()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m lamportAck) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.TS)
	return wire.AppendVarint(b, int64(m.From)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *lamportAck) UnmarshalWire(d *wire.Decoder) error {
	m.TS = d.Varint()
	m.From = d.Int()
	return d.Err()
}

// Token ring.

// MarshalWire implements wire.Marshaler.
func (m tokenMsg) MarshalWire(b []byte) ([]byte, error) {
	return wire.AppendVarint(b, m.Next), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *tokenMsg) UnmarshalWire(d *wire.Decoder) error {
	m.Next = d.Varint()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m tokenOrder) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.Seq)
	b = wire.AppendVarint(b, int64(m.From))
	return wire.AppendAny(b, m.Payload)
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *tokenOrder) UnmarshalWire(d *wire.Decoder) error {
	m.Seq = d.Varint()
	m.From = d.Int()
	m.Payload = d.Any()
	return d.Err()
}

// Batching layer.

// MarshalWire implements wire.Marshaler.
func (m BatchMsg) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(m.Items)))
	var err error
	for i := range m.Items {
		b = wire.AppendVarint(b, int64(m.Items[i].From))
		if b, err = wire.AppendAny(b, m.Items[i].Payload); err != nil {
			return nil, err
		}
		b = wire.AppendVarint(b, int64(m.Items[i].Bytes))
	}
	return b, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *BatchMsg) UnmarshalWire(d *wire.Decoder) error {
	n := d.ArrayLen(3) // from + payload tag + bytes
	if d.Err() != nil || n == 0 {
		return d.Err()
	}
	m.Items = make([]BatchItem, n)
	for i := range m.Items {
		m.Items[i].From = d.Int()
		m.Items[i].Payload = d.Any()
		m.Items[i].Bytes = d.Int()
	}
	return d.Err()
}
