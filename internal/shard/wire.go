package shard

import "moc/internal/wire"

func init() {
	wire.Register(wire.TagShardTicket, Ticket{})
	wire.Register(wire.TagShardCommit, Commit{})
	wire.Register(wire.TagShardClose, Close{})
}

// MarshalWire implements wire.Marshaler. The nested payload rides as an
// `any` slot, like BatchMsg items.
func (m Ticket) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.ID)
	b = wire.AppendVarint(b, int64(m.From))
	b = wire.AppendUvarint(b, uint64(len(m.Shards)))
	for _, s := range m.Shards {
		b = wire.AppendVarint(b, int64(s))
	}
	b = wire.AppendVarint(b, int64(m.Closer))
	var err error
	if b, err = wire.AppendAny(b, m.Payload); err != nil {
		return nil, err
	}
	b = wire.AppendVarint(b, int64(m.Bytes))
	return b, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Ticket) UnmarshalWire(d *wire.Decoder) error {
	m.ID = d.Varint()
	m.From = d.Int()
	n := d.ArrayLen(1)
	if d.Err() != nil {
		return d.Err()
	}
	if n > 0 {
		m.Shards = make([]int, n)
		for i := range m.Shards {
			m.Shards[i] = d.Int()
		}
	}
	m.Closer = d.Int()
	m.Payload = d.Any()
	m.Bytes = d.Int()
	return d.Err()
}

// MarshalWire implements wire.Marshaler: the ticket, then the partial
// rank.
func (m Close) MarshalWire(b []byte) ([]byte, error) {
	b, err := m.Ticket.MarshalWire(b)
	if err != nil {
		return nil, err
	}
	return wire.AppendVarint(b, m.Partial), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Close) UnmarshalWire(d *wire.Decoder) error {
	if err := m.Ticket.UnmarshalWire(d); err != nil {
		return err
	}
	m.Partial = d.Varint()
	return d.Err()
}

// MarshalWire implements wire.Marshaler.
func (m Commit) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, m.ID)
	b = wire.AppendVarint(b, m.Final)
	return b, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *Commit) UnmarshalWire(d *wire.Decoder) error {
	m.ID = d.Varint()
	m.Final = d.Varint()
	return d.Err()
}
