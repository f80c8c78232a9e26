package recovery

import "moc/internal/wire"

// Transfer requests and responses may cross a real serializing
// transport (internal/transport); register them with the wire registry
// under their stable tags.
func init() {
	wire.Register(wire.TagXferReq, xferReq{})
	wire.Register(wire.TagXferResp, xferResp{})
}

// MarshalWire implements wire.Marshaler.
func (m xferReq) MarshalWire(b []byte) ([]byte, error) {
	return wire.AppendVarint(b, m.ReqID), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *xferReq) UnmarshalWire(d *wire.Decoder) error {
	m.ReqID = d.Varint()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m xferResp) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.ReqID)
	b = wire.AppendInt64s(b, m.CK.Values)
	b = wire.AppendInt64s(b, m.CK.TS)
	return wire.AppendVarint(b, m.CK.Applied), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *xferResp) UnmarshalWire(d *wire.Decoder) error {
	m.ReqID = d.Varint()
	m.CK.Values = d.Int64s()
	m.CK.TS = d.Int64s()
	m.CK.Applied = d.Varint()
	return d.Err()
}
