package mocrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"moc/internal/core"
)

// TestDialBackoff pins Dial's retry schedule: 1 ms, doubling, capped at
// 20 ms however long the daemon stays away.
func TestDialBackoff(t *testing.T) {
	want := []time.Duration{1, 2, 4, 8, 16, 20, 20, 20}
	for i, w := range want {
		if got := dialBackoff(i); got != w*time.Millisecond {
			t.Errorf("dialBackoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := dialBackoff(1000); got != 20*time.Millisecond {
		t.Errorf("dialBackoff(1000) = %v, want 20ms", got)
	}
}

// parityStep is one exec call of the parity sequence.
type parityStep struct {
	kind  string
	objs  []string
	vals  []int64
	level string
}

// paritySteps covers every procedure kind, every level and the exec
// refusals. After its first massign every update writes x=4 and y=5
// again (or changes nothing), so two copies of the sequence running
// side by side read the same values whatever their interleaving.
var paritySteps = func() []parityStep {
	steps := []parityStep{{kind: "massign", objs: []string{"x", "y"}, vals: []int64{4, 5}}}
	for _, level := range []string{"one", "quorum", "all", ""} {
		steps = append(steps,
			parityStep{"read", []string{"x"}, nil, level},
			parityStep{"multiread", []string{"x", "y"}, nil, level},
			parityStep{"sum", []string{"x", "y"}, nil, level})
	}
	return append(steps,
		parityStep{"write", []string{"x"}, []int64{4}, ""},
		parityStep{"massign", []string{"x", "y"}, []int64{4, 5}, ""},
		parityStep{"cas", []string{"x"}, []int64{4, 4}, ""},
		parityStep{"cas", []string{"x"}, []int64{7, 8}, ""},
		parityStep{"dcas", []string{"x", "y"}, []int64{4, 5, 4, 5}, ""},
		parityStep{"dcas", []string{"x", "y"}, []int64{1, 5, 2, 5}, ""},
		parityStep{"transfer", []string{"x", "y"}, []int64{0}, ""},
		parityStep{"transfer", []string{"x", "y"}, []int64{100}, ""},
		parityStep{"read", []string{"nope"}, nil, ""},
		parityStep{"cas", []string{"x"}, []int64{1}, ""},
		parityStep{"multiread", nil, nil, ""},
		parityStep{"frobnicate", []string{"x"}, nil, ""},
		parityStep{"read", []string{"x"}, nil, "bogus"})
}()

// parityResult is one step's outcome, with the fields a QUORUM query
// may legitimately vary in taken out: which replies arrive first
// decides its responder set.
type parityResult struct {
	resp Response
	err  string
}

func normalize(step parityStep, resp Response) Response {
	resp.ID = 0
	if step.level == "quorum" {
		resp.Responders = nil
	}
	return resp
}

// TestFramedAndJSONLinesParity runs the same exec sequence through a
// framed Client and a raw JSON-lines connection to one listener at
// the same time: both protocols must give equal responses and the same
// refusal text.
func TestFramedAndJSONLinesParity(t *testing.T) {
	t.Parallel()
	store, err := core.New(core.Config{
		Procs: 3, Objects: []string{"x", "y"},
		Consistency: core.MLinearizable, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, store, 0, nil)
	t.Cleanup(srv.Close)
	c, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	conn, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	framed := make([]parityResult, len(paritySteps))
	lines := make([]parityResult, len(paritySteps))
	done := make(chan error, 1)
	go func() {
		for i, step := range paritySteps {
			resp, err := c.Exec(step.kind, step.objs, step.vals, step.level)
			var se *ServerError
			if err != nil && !errors.As(err, &se) {
				done <- err
				return
			}
			if se != nil {
				framed[i].err = se.Msg
			}
			framed[i].resp = normalize(step, resp)
		}
		done <- nil
	}()
	enc, r := json.NewEncoder(conn), bufio.NewReader(conn)
	for i, step := range paritySteps {
		req := Request{ID: int64(i + 1), Op: "exec", Kind: step.kind, Objs: step.objs, Vals: step.vals, Level: step.level}
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		lines[i] = parityResult{resp: normalize(step, resp), err: resp.Err}
	}
	if err := <-done; err != nil {
		t.Fatalf("framed client: %v", err)
	}
	for i, step := range paritySteps {
		f, l := framed[i], lines[i]
		if !reflect.DeepEqual(f, l) {
			t.Errorf("%+v: framed %+v (err %q), JSON-lines %+v (err %q)", step, f.resp, f.err, l.resp, l.err)
		}
	}
	if lines[len(lines)-1].err == "" {
		t.Fatal("the refusals at the end of the sequence were accepted")
	}
}

// TestFramedNonExecOps checks that the ops whose frames carry JSON
// bodies answer on a framed connection, and that an unknown preamble
// version is refused by closing the connection.
func TestFramedNonExecOps(t *testing.T) {
	t.Parallel()
	_, c := startServer(t, nil)
	if _, err := c.Exec("write", []string{"x"}, []int64{3}, ""); err != nil {
		t.Fatal(err)
	}
	resp, err := c.do(Request{Op: "ping"})
	if err != nil || resp.Version != ProtoVersion {
		t.Fatalf("ping = %+v, %v", resp, err)
	}
	if _, err := c.do(Request{Op: "nosuchop"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if tr, err := c.Dump(); err != nil || len(tr.Records) != 1 {
		t.Fatalf("dump = %d records, %v", len(tr.Records), err)
	}

	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := appendRequest([]byte{0, frameVersion + 1}, Request{ID: 1, Op: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("unknown version not refused by a close: read returned %v", err)
	}
}

// TestReadFrameRefusesOversizedPrefix pins the request bound: a length
// prefix over it is refused before any buffer is allocated.
func TestReadFrameRefusesOversizedPrefix(t *testing.T) {
	t.Parallel()
	hdr := binary.AppendUvarint(nil, maxRequestFrame+1)
	var buf []byte
	_, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)), &buf, maxRequestFrame)
	if !errors.Is(err, errFrameTooLarge) || buf != nil {
		t.Fatalf("oversized prefix: err %v, buffer of %d bytes", err, cap(buf))
	}
}

// execFrameSeeds returns request and reply frames for every kind and
// level, every value shape, and JSON-bodied ops.
func execFrameSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	add := func(b []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, kind := range []string{"read", "write", "multiread", "sum", "massign", "cas", "dcas", "transfer", "frobnicate"} {
		for _, level := range []string{"one", "quorum", "all", "", "bogus"} {
			add(appendRequest(nil, Request{ID: 7, Op: "exec", Kind: kind, Objs: []string{"x", "y"}, Vals: []int64{-1, 1 << 40}, Level: level}))
		}
	}
	add(appendRequest(nil, Request{ID: 1, Op: "exec", Kind: "multiread"}))
	for _, op := range []string{"ping", "dump", "stats", "info", "shutdown"} {
		add(appendRequest(nil, Request{ID: 2, Op: op}))
	}
	v, yes, no := int64(-9), true, false
	for _, resp := range []Response{
		{ID: 3, OK: true, Value: &v, Level: "one", Responders: []int{0}, IsConsistent: &yes},
		{ID: 3, OK: true, Values: []int64{4, 5}, Level: "quorum", Responders: []int{0, 2}, IsConsistent: &no},
		{ID: 3, OK: true, Bool: &yes, Level: "all", Responders: []int{0, 1, 2}, IsConsistent: &yes},
		{ID: 3, OK: true, Level: "all"},
		{ID: 3, Err: `core: unknown object "nope"`},
	} {
		add(appendResponse(nil, resp, true))
	}
	add(appendResponse(nil, Response{ID: 4, OK: true, Version: ProtoVersion, Info: map[string]int64{"a": 1}}, false))
	return seeds
}

// FuzzExecFrame feeds arbitrary bytes through the frame reader and both
// decoders. Anything accepted as a request or a reply must re-encode
// to a fixed point: encoding the decoded value, decoding that and
// encoding again gives the same bytes.
func FuzzExecFrame(f *testing.F) {
	seeds := execFrameSeeds(f)
	for _, s := range seeds {
		f.Add(s)
		for i := 0; i < len(s); i++ {
			f.Add(s[:i]) // every truncation
		}
	}
	// Hostile counts: a request promising 2^40 objects, a reply
	// promising as many responders, and a length prefix over the bound.
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	frame := func(body ...byte) []byte { return append([]byte{byte(len(body))}, body...) }
	f.Add(frame(append([]byte{1, bodyExec, 4, 'r', 'e', 'a', 'd'}, huge...)...))
	f.Add(frame(append([]byte{1, bodyExec, 1, 0, shapeNone, 0}, huge...)...))
	f.Add([]byte{0x81, 0x80, 0x40, 1, bodyExec})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		body, err := readFrame(bufio.NewReader(bytes.NewReader(data)), &buf, maxRequestFrame)
		if err != nil {
			return
		}
		var req Request
		if decodeRequest(body, &req) == nil {
			fixedPoint(t, func(b []byte) ([]byte, error) {
				var r Request
				if err := decodeRequest(b, &r); err != nil {
					return nil, err
				}
				return appendRequest(nil, r)
			}, body)
		}
		_, _, exec, _ := decodeHead(body, new(Response))
		var resp Response
		if decodeResponse(body, &resp) == nil {
			fixedPoint(t, func(b []byte) ([]byte, error) {
				var r Response
				if err := decodeResponse(b, &r); err != nil {
					return nil, err
				}
				return appendResponse(nil, r, exec)
			}, body)
		}
	})
}

// fixedPoint checks that recode (decode a body, encode a frame) reaches
// a fixed point after one round from an accepted body.
func fixedPoint(t *testing.T, recode func([]byte) ([]byte, error), body []byte) {
	t.Helper()
	first, err := recode(body)
	if err != nil {
		t.Fatalf("accepted body does not re-encode: %v", err)
	}
	var buf []byte
	again, err := readFrame(bufio.NewReader(bytes.NewReader(first)), &buf, maxResponseFrame)
	if err != nil {
		t.Fatalf("re-encoded frame does not read back: %v", err)
	}
	second, err := recode(again)
	if err != nil {
		t.Fatalf("re-encoded body does not decode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", first, second)
	}
}
