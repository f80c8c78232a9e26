// Package mocrpc is the client front-end of a mocd daemon: a minimal
// request/response protocol over TCP through which a client issues
// m-operations at the daemon's own process, dumps the recorded
// execution trace for cross-daemon merging, reads transport counters,
// and requests shutdown. Requests on one connection are served in
// order, one response each, matched by ID. The protocol deliberately
// carries object names, not IDs, so a client needs only the cluster's
// object list — the daemon resolves names against its registry.
//
// One listener speaks two framings, told apart by the connection's
// first byte. JSON lines — one Request per line, one Response per
// line — serve tools and the frozen v1 corpus. Client speaks binary
// frames: the preamble {0x00, version} (no JSON-lines client can send
// a NUL byte; an unknown version closes the connection), then one
// frame per request and per reply:
//
//	frame = uvarint(len) uvarint(id) uvarint(type) body   len counts all after itself
//
// An "exec" call and its reply have type 1 and bodies built on
// internal/wire (ok and bool are 0/1, is_consistent 0 absent, 1 false
// or 2 true):
//
//	request: string kind, uvarint n, n × string obj, int64s vals, string level
//	reply:   uvarint ok, string err, uvarint shape + value, string level,
//	         uvarint n, n × varint responder, uvarint is_consistent
//
// where shape is 0 none, 1 value (varint), 2 values (int64s) or 3 bool.
// Every other op (dump, stats, info, ping, shutdown) has type 0: its
// Request or Response as the JSON the JSON-lines protocol sends, with
// the frame's id overriding the JSON's. Both framings reach the same
// handler, so they answer alike. A request frame over 1 MiB is refused
// before it is read; a reply frame may reach 256 MiB, for long dumps.
package mocrpc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/object"
)

// Protocol version. The wire format is JSON with omitted-when-empty
// fields, so minor bumps are strictly additive: a v1.0 client talking to
// a v1.1 daemon never sees the new fields (it sends no "level", the
// daemon runs the store's native level and the echo fields stay at their
// legacy zero values), and a v1.1 client degrades gracefully against a
// v1.0 daemon (absent echo fields decode to the legacy zero values).
//
//	v1.0 — initial protocol: exec/dump/stats/info/ping/shutdown
//	v1.1 — per-request consistency levels: Request.Level,
//	       Response.Level/IsConsistent/Responders, ping echoes "version"
//	v1.2 — binary exec frames; JSON-lines unchanged (Client speaks only
//	       frames, so it needs a v1.2 daemon)
const (
	ProtoMajor = 1
	ProtoMinor = 2
)

// ProtoVersion is the "major.minor" string a ping response echoes.
var ProtoVersion = fmt.Sprintf("%d.%d", ProtoMajor, ProtoMinor)

// Request is one client request. Op selects the action:
//
//	"exec"     — run an m-operation (Kind, Objs, Vals, Level; see Exec)
//	"dump"     — return the daemon's recorded trace
//	"stats"    — return the daemon's aggregated transport counters
//	"info"     — return the daemon's operational counters (SetInfo)
//	"ping"     — liveness probe (echoes the protocol version)
//	"shutdown" — acknowledge, then shut the daemon down
type Request struct {
	ID   int64    `json:"id"`
	Op   string   `json:"op"`
	Kind string   `json:"kind,omitempty"`
	Objs []string `json:"objs,omitempty"`
	Vals []int64  `json:"vals,omitempty"`
	// Level is the requested consistency level for "exec" queries:
	// "one", "quorum", "all", or empty for the store's native level
	// (full solicitation — ALL — on an m-linearizable store). v1.0
	// clients never send it and get the legacy behavior unchanged.
	Level string `json:"level,omitempty"`
}

// Response answers one Request (matched by ID).
type Response struct {
	ID     int64            `json:"id"`
	OK     bool             `json:"ok"`
	Err    string           `json:"err,omitempty"`
	Value  *int64           `json:"value,omitempty"`  // read, sum
	Values []int64          `json:"values,omitempty"` // multiread
	Bool   *bool            `json:"bool,omitempty"`   // cas, dcas, transfer
	Trace  *core.Trace      `json:"trace,omitempty"`  // dump
	Stats  *network.Stats   `json:"stats,omitempty"`  // stats
	Info   map[string]int64 `json:"info,omitempty"`   // info
	// v1.1 exec echo: the certified level the store actually served
	// ("one"/"quorum"/"all"; empty for level-less legacy execs), the
	// replicas that contributed to a query's merged view, and whether
	// the certified level honors the requested one (false when a
	// bounded quorum/all query force-completed below its target).
	Level        string `json:"level,omitempty"`
	Responders   []int  `json:"responders,omitempty"`
	IsConsistent *bool  `json:"is_consistent,omitempty"`
	// Version is the daemon's protocol version, echoed on "ping".
	Version string `json:"version,omitempty"`
}

// Server serves the daemon RPC protocol on one listener.
type Server struct {
	store      *core.Store
	self       int
	ln         net.Listener
	onShutdown func()
	once       sync.Once
	wg         sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	info   func() map[string]int64
}

// SetInfo registers the callback answering "info" requests — the
// daemon's operational counters (recovery adoptions, fault-injection
// stats, …). The callback must be safe for concurrent use. Call before
// clients connect; without one, "info" returns an empty map.
func (s *Server) SetInfo(f func() map[string]int64) {
	s.mu.Lock()
	s.info = f
	s.mu.Unlock()
}

// Serve starts serving requests against store's process self on ln.
// onShutdown (may be nil) is invoked once, asynchronously, after a
// shutdown request has been acknowledged.
func Serve(ln net.Listener, store *core.Store, self int, onShutdown func()) *Server {
	s := &Server{store: store, self: self, ln: ln, onShutdown: onShutdown, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes every client connection.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == 0 {
		s.serveFramed(conn, br)
		return
	}
	dec := json.NewDecoder(br)
	enc := json.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp, shutdown := s.handle(req)
		if err := enc.Encode(resp); err != nil {
			return
		}
		if shutdown {
			if s.onShutdown != nil {
				go s.onShutdown()
			}
			return
		}
	}
}

// serveFramed runs the framed protocol on a connection whose first
// byte, still buffered in br, is the preamble's NUL. An unknown
// version closes the connection.
func (s *Server) serveFramed(conn net.Conn, br *bufio.Reader) {
	var pre [2]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre[1] != frameVersion {
		return
	}
	fc := &frameConn{r: br, w: conn}
	for s.serveFrame(fc) {
	}
}

// frameConn is one framed connection's reader, writer and the buffers
// its requests and replies reuse.
type frameConn struct {
	r          *bufio.Reader
	w          io.Writer
	rbuf, wbuf []byte
	req        Request
}

// serveFrame reads one request frame, handles it and writes the reply
// in one Write. It reports whether the connection stays open: a read,
// decode or write error closes it, and so does a shutdown.
func (s *Server) serveFrame(fc *frameConn) bool {
	body, err := readFrame(fc.r, &fc.rbuf, maxRequestFrame)
	if err == nil {
		err = decodeRequest(body, &fc.req)
	}
	if err != nil {
		return false
	}
	resp, shutdown := s.handle(fc.req)
	exec := fc.req.Op == "exec"
	if fc.wbuf, err = appendResponse(fc.wbuf[:0], resp, exec); err != nil {
		// A reply over the frame bound: refuse it instead.
		fc.wbuf, err = appendResponse(fc.wbuf[:0], fail(resp.ID, err), exec)
	}
	if err == nil {
		_, err = fc.w.Write(fc.wbuf)
	}
	if err == nil && shutdown && s.onShutdown != nil {
		go s.onShutdown()
	}
	return err == nil && !shutdown
}

func fail(id int64, err error) Response {
	return Response{ID: id, Err: err.Error()}
}

// handle executes one request; the second return value reports whether
// the daemon should now shut down.
func (s *Server) handle(req Request) (Response, bool) {
	switch req.Op {
	case "ping":
		return Response{ID: req.ID, OK: true, Version: ProtoVersion}, false
	case "shutdown":
		return Response{ID: req.ID, OK: true}, true
	case "stats":
		st := s.store.NetStats()
		return Response{ID: req.ID, OK: true, Stats: &st}, false
	case "info":
		s.mu.Lock()
		f := s.info
		s.mu.Unlock()
		info := map[string]int64{}
		if f != nil {
			info = f()
		}
		return Response{ID: req.ID, OK: true, Info: info}, false
	case "dump":
		tr, err := s.store.Trace(s.self)
		if err != nil {
			return fail(req.ID, err), false
		}
		return Response{ID: req.ID, OK: true, Trace: &tr}, false
	case "exec":
		return s.exec(req), false
	default:
		return fail(req.ID, fmt.Errorf("mocrpc: unknown op %q", req.Op)), false
	}
}

// exec resolves the named procedure and runs it at the daemon's process.
func (s *Server) exec(req Request) Response {
	objs := make([]object.ID, len(req.Objs))
	for i, name := range req.Objs {
		id, err := s.store.Object(name)
		if err != nil {
			return fail(req.ID, err)
		}
		objs[i] = id
	}
	vals := make([]object.Value, len(req.Vals))
	for i, v := range req.Vals {
		vals[i] = object.Value(v)
	}
	need := func(nObjs, nVals int) error {
		if len(objs) != nObjs || len(vals) != nVals {
			return fmt.Errorf("mocrpc: %s wants %d objs and %d vals, got %d and %d",
				req.Kind, nObjs, nVals, len(objs), len(vals))
		}
		return nil
	}

	var pr mop.Procedure
	switch req.Kind {
	case "read":
		if err := need(1, 0); err != nil {
			return fail(req.ID, err)
		}
		pr = mop.ReadOp{X: objs[0]}
	case "write":
		if err := need(1, 1); err != nil {
			return fail(req.ID, err)
		}
		pr = mop.WriteOp{X: objs[0], V: vals[0]}
	case "multiread":
		if len(objs) == 0 {
			return fail(req.ID, fmt.Errorf("mocrpc: multiread wants at least one obj"))
		}
		pr = mop.MultiRead{Xs: objs}
	case "sum":
		if len(objs) == 0 {
			return fail(req.ID, fmt.Errorf("mocrpc: sum wants at least one obj"))
		}
		pr = mop.Sum{Xs: objs}
	case "massign":
		if len(objs) == 0 || len(objs) != len(vals) {
			return fail(req.ID, fmt.Errorf("mocrpc: massign wants parallel objs and vals"))
		}
		writes := make(map[object.ID]object.Value, len(objs))
		for i, x := range objs {
			writes[x] = vals[i]
		}
		pr = mop.MAssign{Writes: writes}
	case "cas":
		if err := need(1, 2); err != nil {
			return fail(req.ID, err)
		}
		pr = mop.CAS{X: objs[0], Old: vals[0], New: vals[1]}
	case "dcas":
		if err := need(2, 4); err != nil {
			return fail(req.ID, err)
		}
		pr = mop.DCAS{X1: objs[0], X2: objs[1], Old1: vals[0], Old2: vals[1], New1: vals[2], New2: vals[3]}
	case "transfer":
		if err := need(2, 1); err != nil {
			return fail(req.ID, err)
		}
		pr = mop.Transfer{From: objs[0], To: objs[1], Amount: vals[0]}
	default:
		return fail(req.ID, fmt.Errorf("mocrpc: unknown procedure kind %q", req.Kind))
	}

	level, err := history.ParseLevel(req.Level)
	if err != nil {
		return fail(req.ID, fmt.Errorf("mocrpc: %w", err))
	}
	proc, err := s.store.Process(s.self)
	if err != nil {
		return fail(req.ID, err)
	}
	res, err := proc.Exec(pr, core.ExecOptions{Level: level})
	if err != nil {
		return fail(req.ID, err)
	}
	resp := Response{ID: req.ID, OK: true, Level: res.Level.String(), Responders: res.Responders}
	consistent := res.IsConsistent
	resp.IsConsistent = &consistent
	switch v := res.Value.(type) {
	case object.Value:
		n := int64(v)
		resp.Value = &n
	case []object.Value:
		resp.Values = make([]int64, len(v))
		for i, x := range v {
			resp.Values[i] = int64(x)
		}
	case bool:
		b := v
		resp.Bool = &b
	case nil:
	default:
		return fail(req.ID, fmt.Errorf("mocrpc: unencodable result %T", v))
	}
	return resp
}
