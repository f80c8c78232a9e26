package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"moc/internal/network"
	"moc/internal/network/testutil"
)

// TestReadFrameRejectsHostileLengthPrefix feeds readFrame length
// prefixes a hostile peer could fabricate and requires the typed
// ErrFrameTooLarge before any body allocation could happen.
func TestReadFrameRejectsHostileLengthPrefix(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    uint32
	}{
		{"just over limit", maxFrame + 1},
		{"4GiB-ish", 0xFFFFFFFF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], tc.n)
			var scratch []byte
			_, err := readFrame(bytes.NewReader(hdr[:]), &scratch)
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("length prefix %d: got %v, want ErrFrameTooLarge", tc.n, err)
			}
			if scratch != nil {
				t.Fatalf("hostile prefix allocated a %d-byte scratch buffer", cap(scratch))
			}
		})
	}
}

// TestReadFrameRejectsMalformedFrames covers the ErrBadFrame family:
// empty frames, unknown codec bytes, and bodies that fail to decode.
func TestReadFrameRejectsMalformedFrames(t *testing.T) {
	frame := func(body ...byte) []byte {
		b := make([]byte, 4, 4+len(body))
		binary.BigEndian.PutUint32(b, uint32(len(body)))
		return append(b, body...)
	}
	good := func() []byte {
		b, err := encodeFrameBytes(t, wireFrame{Channel: "c", Kind: "k"})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	trailing := func() []byte {
		b := append(good(), 0x00) // stray byte inside the frame body
		binary.BigEndian.PutUint32(b, uint32(len(b)-4))
		return b
	}
	// A valid body behind the retired codec byte: the byte alone must
	// get the frame refused.
	retired := func() []byte {
		b := good()
		b[4] = retiredCodecByte
		return b
	}
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"empty frame", frame()},
		{"unknown codec byte", frame(0x7F, 1, 2, 3)},
		{"binary garbage body", frame(codecBinary, 0xFF, 0xFF, 0xFF)},
		{"gob garbage body", retired()},
		{"binary trailing bytes", trailing()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var scratch []byte
			_, err := readFrame(bytes.NewReader(tc.in), &scratch)
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("got %v, want ErrBadFrame", err)
			}
		})
	}
}

// TestHostilePrefixClosesConnection is the end-to-end regression for
// the wire-path hardening: a raw TCP client that sends a frame whose
// length prefix exceeds maxFrame must get its connection closed by the
// node, and the node must keep serving well-formed peers afterwards.
func TestHostilePrefixClosesConnection(t *testing.T) {
	cluster, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	link, err := cluster.Factory()("hardening", network.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	conn, err := net.Dial("tcp", cluster.Node(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hostile [4]byte
	binary.BigEndian.PutUint32(hostile[:], maxFrame+1)
	if _, err := conn.Write(hostile[:]); err != nil {
		t.Fatalf("write hostile prefix: %v", err)
	}
	// The node must hang up: the next read sees EOF or a reset, not a
	// hang (a timeout here means the connection was left open).
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("node kept the connection open after a hostile length prefix")
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("node neither closed the connection nor responded (read timed out)")
	}

	// Legitimate traffic still flows after the hostile peer is dropped.
	if err := link.Send(1, 0, "hard.ok", testutil.ConformancePayload{N: 9, S: "after"}, 8); err != nil {
		t.Fatalf("Send after hostile peer: %v", err)
	}
	select {
	case m := <-link.Recv(0):
		if p, ok := m.Payload.(testutil.ConformancePayload); !ok || p.N != 9 {
			t.Fatalf("mangled payload %#v", m.Payload)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery after hostile peer was dropped")
	}
}

// shortWriteConn is a net.Conn stub whose Write accepts at most chunk
// bytes per call, optionally failing once mid-stream: when total bytes
// would pass failAt it returns a partial count and an error.
type shortWriteConn struct {
	net.Conn // panics on unimplemented methods; only Write is used
	mu       sync.Mutex
	chunk    int
	failAt   int // fail once when total would pass this offset; -1 = never
	total    int
	buf      bytes.Buffer
}

func (c *shortWriteConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(b)
	if n > c.chunk {
		n = c.chunk
	}
	if c.failAt >= 0 && c.total+n > c.failAt {
		n = c.failAt - c.total
		c.failAt = -1
		c.buf.Write(b[:n])
		c.total += n
		return n, errors.New("injected write failure")
	}
	c.buf.Write(b[:n])
	c.total += n
	return n, nil
}

func (c *shortWriteConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

// TestWriteFullLoopsOverShortWrites proves the writer survives a
// net.Conn that dribbles: every byte arrives, in order, no error.
func TestWriteFullLoopsOverShortWrites(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	conn := &shortWriteConn{chunk: 7, failAt: -1}
	n, err := writeFull(conn, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("writeFull = (%d, %v), want (%d, nil)", n, err, len(payload))
	}
	if !bytes.Equal(conn.bytes(), payload) {
		t.Fatal("short-write path corrupted the stream")
	}
}

// TestWriteFullReportsPartialProgress pins the contract the writer's
// resend logic depends on: when the conn fails mid-stream, writeFull
// reports exactly how many bytes were written before the error, so the
// caller can tell complete frames from the torn one.
func TestWriteFullReportsPartialProgress(t *testing.T) {
	payload := bytes.Repeat([]byte{0xCD}, 500)
	conn := &shortWriteConn{chunk: 64, failAt: 200}
	n, err := writeFull(conn, payload)
	if err == nil {
		t.Fatal("injected failure did not surface")
	}
	if n != 200 {
		t.Fatalf("writeFull reported %d bytes written, want 200", n)
	}
	if !bytes.Equal(conn.bytes(), payload[:200]) {
		t.Fatal("bytes on the wire disagree with the reported count")
	}
}

// TestPruneWrittenKeepsTornFrameWhole unit-tests the writer's
// frame-boundary accounting after a mid-stream write error: frames
// written in full are dropped, the torn frame is kept whole from its
// first byte, and the resend-eligible count is exact.
func TestPruneWrittenKeepsTornFrameWhole(t *testing.T) {
	// Three frames of 10, 20, 30 bytes; ends = 10, 30, 60.
	mk := func() ([]byte, []int) {
		var b []byte
		for i, n := range []int{10, 20, 30} {
			for j := 0; j < n; j++ {
				b = append(b, byte(i+1))
			}
		}
		return b, []int{10, 30, 60}
	}
	for _, tc := range []struct {
		name       string
		written    int
		wantFrames []int // surviving frame ends, rebased
		wantResend int
	}{
		{"error before any byte", 0, []int{10, 30, 60}, 3},
		{"torn first frame", 5, []int{10, 30, 60}, 3},
		{"first frame complete", 10, []int{20, 50}, 2},
		{"torn second frame", 29, []int{20, 50}, 2},
		{"torn last frame", 59, []int{30}, 1},
		{"everything written", 60, []int{}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wbuf, ends := mk()
			orig, _ := mk()
			gotBuf, gotEnds, resend := pruneWritten(wbuf, ends, tc.written)
			if resend != tc.wantResend {
				t.Fatalf("resend = %d, want %d", resend, tc.wantResend)
			}
			if len(gotEnds) != len(tc.wantFrames) || (len(gotEnds) > 0 && !reflect.DeepEqual(gotEnds, tc.wantFrames)) {
				t.Fatalf("ends = %v, want %v", gotEnds, tc.wantFrames)
			}
			// Surviving bytes must be the untouched tail of the original
			// stream, starting at the torn frame's first byte.
			keepFrom := len(orig) - len(gotBuf)
			if !bytes.Equal(gotBuf, orig[keepFrom:]) {
				t.Fatal("surviving frames were corrupted by compaction")
			}
		})
	}
}

// TestWriterResendsAfterConnectionBreak drives the writer's resend path
// over real sockets: sever every established connection on the sending
// node mid-stream and require that every frame queued after the break
// still arrives intact on a fresh connection (frames already handed to
// the dead socket may be lost — TCP cannot promise exactly-once across
// a break — but nothing queued afterwards may be).
func TestWriterResendsAfterConnectionBreak(t *testing.T) {
	cluster, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	link, err := cluster.Factory()("resend", network.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	const total = 2000
	const breakAt = total / 2
	recv := link.Recv(1)
	got := make(map[int]bool, total)
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.After(20 * time.Second)
		for {
			select {
			case m := <-recv:
				got[m.Payload.(testutil.ConformancePayload).N] = true
				if got[total-1] && len(got) >= total-breakAt {
					// Heuristic drain: tail has arrived; grab stragglers.
					for {
						select {
						case m := <-recv:
							got[m.Payload.(testutil.ConformancePayload).N] = true
						case <-time.After(200 * time.Millisecond):
							return
						}
					}
				}
			case <-deadline:
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		if err := link.Send(0, 1, "resend.seq", testutil.ConformancePayload{N: i, S: "x"}, 8); err != nil {
			t.Fatalf("Send #%d: %v", i, err)
		}
		if i == breakAt {
			// Sever every established connection on the sending node;
			// in-flight writes fail and the writer must reconnect and
			// resend from the first incomplete frame.
			n0 := cluster.Node(0)
			n0.mu.Lock()
			for c := range n0.conns {
				c.Close()
			}
			n0.mu.Unlock()
		}
	}
	<-done
	// Frames enqueued after the break can only ever be written to the
	// fresh connection, so they must all arrive.
	for i := breakAt + 1; i < total; i++ {
		if !got[i] {
			t.Fatalf("frame %d (queued after the break) never arrived", i)
		}
	}
}
