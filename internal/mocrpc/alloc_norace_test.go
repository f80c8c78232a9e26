//go:build !race

// The allocation ceiling runs only without the race detector, which
// adds allocations of its own.
package mocrpc

import (
	"bufio"
	"io"
	"testing"

	"moc/internal/core"
)

// maxAllocsExec is the ceiling for one binary exec round of the
// server's framed loop: read the frame, decode it, run an m-SC
// multiread of two objects (a local read) and encode and write the
// reply. It measures 17 on Go 1.24/amd64. A memory profile puts 12 of
// them in the store's local read, 3 in the exec handler (the object-ID
// slice, the boxed procedure and the reply's values) and 1 in decoding
// the kind; reading the frame and encoding and writing the reply
// allocate nothing once the connection's buffers have grown.
const maxAllocsExec = 17

// loopReader replays one frame forever, so the framed loop can be
// timed without a socket.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestRPCExecAllocs is the allocation ceiling of the server's binary
// exec loop.
func TestRPCExecAllocs(t *testing.T) {
	store, err := core.New(core.Config{
		Procs: 3, Objects: []string{"x", "y"},
		Consistency: core.MSequential, DisableRecording: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	frame, err := appendRequest(nil, Request{ID: 1, Op: "exec", Kind: "multiread", Objs: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{store: store}
	fc := &frameConn{r: bufio.NewReader(&loopReader{b: frame}), w: io.Discard}
	step := func() {
		if !s.serveFrame(fc) {
			t.Fatal("the framed loop closed the connection")
		}
	}
	step()
	if allocs := testing.AllocsPerRun(2000, step); allocs > maxAllocsExec {
		t.Fatalf("binary exec round allocates %.0f times, ceiling %d", allocs, maxAllocsExec)
	}
}
