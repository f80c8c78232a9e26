package testutil

import (
	"fmt"
	"testing"
	"time"

	"moc/internal/network"
	"moc/internal/wire"
)

// ConformancePayload is the payload type the conformance suite sends.
// It is wire-registered so serializing transports (internal/transport)
// can carry it; in-memory transports pass it through by reference.
type ConformancePayload struct {
	N int
	S string
}

func init() { wire.Register(wire.TagConformance, ConformancePayload{}) }

// MarshalWire implements wire.Marshaler.
func (p ConformancePayload) MarshalWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, int64(p.N))
	return wire.AppendString(b, p.S), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (p *ConformancePayload) UnmarshalWire(d *wire.Decoder) error {
	p.N = d.Int()
	p.S = d.String()
	return d.Err()
}

// LinkMaker builds a fresh Link for one conformance subtest. The maker
// owns cleanup (register it with t.Cleanup); the suite closes links it
// tests Close semantics on, so cleanup must tolerate an already-closed
// link.
type LinkMaker func(t testing.TB, cfg network.Config) network.Link

// RunLinkConformance exercises the network.Link contract every
// transport must honor — delivery with intact message fields, broadcast
// fan-out including self, per-link FIFO when requested, Close semantics
// (ErrClosed on send, idempotent Close), and Stats accounting. Counter
// assertions are lower bounds: layered transports (Reliable, TCP) may
// legitimately inflate bytes with framing overhead or resend frames.
func RunLinkConformance(t *testing.T, mk LinkMaker) {
	const procs = 3
	const wait = 10 * time.Second

	t.Run("Delivery", func(t *testing.T) {
		link := mk(t, network.Config{Procs: procs, FIFO: true})
		for from := 0; from < procs; from++ {
			for to := 0; to < procs; to++ {
				p := ConformancePayload{N: from*procs + to, S: fmt.Sprintf("%d->%d", from, to)}
				if err := link.Send(from, to, "conf.msg", p, 10+p.N); err != nil {
					t.Fatalf("Send(%d,%d): %v", from, to, err)
				}
			}
		}
		for to := 0; to < procs; to++ {
			got := Drain(t, wait, link.Recv(to), procs, Source("link", link.Stats))
			seen := make(map[int]network.Message)
			for _, m := range got {
				seen[m.From] = m
			}
			for from := 0; from < procs; from++ {
				m, ok := seen[from]
				if !ok {
					t.Fatalf("endpoint %d: no message from %d", to, from)
				}
				want := ConformancePayload{N: from*procs + to, S: fmt.Sprintf("%d->%d", from, to)}
				if m.To != to || m.Kind != "conf.msg" || m.Bytes != 10+want.N {
					t.Fatalf("endpoint %d: mangled message %+v", to, m)
				}
				if p, ok := m.Payload.(ConformancePayload); !ok || p != want {
					t.Fatalf("endpoint %d: payload %#v, want %#v", to, m.Payload, want)
				}
			}
		}
	})

	t.Run("Broadcast", func(t *testing.T) {
		link := mk(t, network.Config{Procs: procs, FIFO: true})
		if err := link.Broadcast(1, "conf.bcast", ConformancePayload{N: 7}, 42); err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
		for to := 0; to < procs; to++ {
			got := Drain(t, wait, link.Recv(to), 1, Source("link", link.Stats))
			if len(got) != 1 {
				t.Fatalf("endpoint %d missed the broadcast", to)
			}
			m := got[0]
			if m.From != 1 || m.To != to || m.Kind != "conf.bcast" || m.Bytes != 42 {
				t.Fatalf("endpoint %d: mangled broadcast %+v", to, m)
			}
		}
	})

	t.Run("FIFO", func(t *testing.T) {
		const n = 100
		link := mk(t, network.Config{Procs: procs, FIFO: true})
		for i := 0; i < n; i++ {
			if err := link.Send(0, 1, "conf.seq", ConformancePayload{N: i}, 8); err != nil {
				t.Fatalf("Send #%d: %v", i, err)
			}
		}
		got := Drain(t, wait, link.Recv(1), n, Source("link", link.Stats))
		for i, m := range got {
			if p := m.Payload.(ConformancePayload); p.N != i {
				t.Fatalf("delivery %d out of order: got seq %d", i, p.N)
			}
		}
	})

	t.Run("Close", func(t *testing.T) {
		link := mk(t, network.Config{Procs: procs, FIFO: true})
		link.Close()
		if err := link.Send(0, 1, "conf.late", ConformancePayload{}, 1); err != network.ErrClosed {
			t.Fatalf("Send after Close: got %v, want network.ErrClosed", err)
		}
		if err := link.Broadcast(0, "conf.late", ConformancePayload{}, 1); err != network.ErrClosed {
			t.Fatalf("Broadcast after Close: got %v, want network.ErrClosed", err)
		}
		link.Close() // must be idempotent
	})

	t.Run("Stats", func(t *testing.T) {
		link := mk(t, network.Config{Procs: procs, FIFO: true})
		if got := link.Procs(); got != procs {
			t.Fatalf("Procs() = %d, want %d", got, procs)
		}
		const (
			alphaMsgs, alphaBytes = 5, 20
			betaMsgs, betaBytes   = 3, 100
		)
		for i := 0; i < alphaMsgs; i++ {
			if err := link.Send(0, 1, "conf.alpha", ConformancePayload{N: i}, alphaBytes); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		for i := 0; i < betaMsgs; i++ {
			if err := link.Send(2, 0, "conf.beta", ConformancePayload{N: i}, betaBytes); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		Drain(t, wait, link.Recv(1), alphaMsgs, Source("link", link.Stats))
		Drain(t, wait, link.Recv(0), betaMsgs, Source("link", link.Stats))
		st := link.Stats()
		if st.Messages < alphaMsgs+betaMsgs {
			t.Errorf("Messages = %d, want >= %d", st.Messages, alphaMsgs+betaMsgs)
		}
		if st.Bytes < alphaMsgs*alphaBytes+betaMsgs*betaBytes {
			t.Errorf("Bytes = %d, want >= %d", st.Bytes, alphaMsgs*alphaBytes+betaMsgs*betaBytes)
		}
		if ks := st.ByKind["conf.alpha"]; ks.Messages < alphaMsgs || ks.Bytes < alphaMsgs*alphaBytes {
			t.Errorf("ByKind[conf.alpha] = %+v, want >= %d msgs / %d bytes", ks, alphaMsgs, alphaMsgs*alphaBytes)
		}
		if ks := st.ByKind["conf.beta"]; ks.Messages < betaMsgs || ks.Bytes < betaMsgs*betaBytes {
			t.Errorf("ByKind[conf.beta] = %+v, want >= %d msgs / %d bytes", ks, betaMsgs, betaMsgs*betaBytes)
		}
	})
}
