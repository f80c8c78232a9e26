package mocrpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"moc/internal/core"
	"moc/internal/network"
)

// Call-failure classification. A chaos-tolerant client must distinguish
// "the daemon never saw this request" (safe to retry anything) from
// "the request may have executed but the response was lost" (retrying
// an update would duplicate it and poison the merged history).
var (
	// ErrTimeout: the per-call deadline expired mid-call. The request may
	// have been sent; the outcome is unknown. The connection is torn down
	// (responses would no longer match requests) and redialed lazily.
	ErrTimeout = errors.New("mocrpc: call deadline exceeded")
	// ErrUnavailable: the daemon could not be reached at all — the
	// request was never sent, so retrying cannot duplicate it.
	ErrUnavailable = errors.New("mocrpc: daemon unavailable")
	// ErrIndeterminate: the transport failed after the request may have
	// reached the wire; the outcome is unknown.
	ErrIndeterminate = errors.New("mocrpc: call outcome unknown")
)

// ServerError is an application-level refusal from the daemon (bad
// arity, unknown object, protocol shutdown). The connection stays
// healthy; the request definitively did not execute.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "mocrpc: server: " + e.Msg }

// IsRetryable reports whether err guarantees the request never reached
// the daemon, so even a non-idempotent update can be reissued safely.
func IsRetryable(err error) bool { return errors.Is(err, ErrUnavailable) }

// IsIndeterminate reports whether the request may have executed even
// though the call failed. Queries can be retried through this; updates
// must not be (duplicate writes would corrupt the recorded history).
func IsIndeterminate(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrIndeterminate)
}

// Client is a connection to one mocd daemon. Safe for concurrent use;
// requests are serialized on the single connection. After a failed
// call the connection is torn down and transparently redialed on the
// next call, so a client object survives daemon restarts.
type Client struct {
	addr        string
	callTimeout time.Duration // guarded by mu after construction

	mu         sync.Mutex
	conn       net.Conn
	r          *bufio.Reader
	fresh      bool // no request sent on conn yet: the next carries the preamble
	rbuf, wbuf []byte
	nextID     int64
}

// Dial connects to a daemon's client address, retrying until the
// deadline — daemons in a cluster come up at different times.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	deadline := time.Now().Add(timeout)
	for attempt := 0; ; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			c := &Client{addr: addr}
			c.attach(conn)
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mocrpc: dial %s: %v: %w", addr, err, ErrUnavailable)
		}
		time.Sleep(dialBackoff(attempt))
	}
}

// dialBackoff is Dial's pause after its attempt-th failure (counting
// from 0): 1 ms, doubling up to 20 ms.
func dialBackoff(attempt int) time.Duration {
	return min(time.Millisecond<<min(attempt, 5), 20*time.Millisecond)
}

// SetCallTimeout bounds every subsequent call. Zero (the default)
// means calls block until the daemon answers or the connection dies.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	c.callTimeout = d
	c.mu.Unlock()
}

// attach points the codec at a fresh connection. Caller holds mu (or
// is the constructor).
func (c *Client) attach(conn net.Conn) {
	c.conn, c.r, c.fresh = conn, bufio.NewReader(conn), true
}

// teardown abandons a connection whose request/response pairing can no
// longer be trusted. Caller holds mu.
func (c *Client) teardown() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// classify maps a transport failure to the typed sentinels.
func classify(op string, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("mocrpc: %s: %v: %w", op, err, ErrTimeout)
	}
	return fmt.Errorf("mocrpc: %s: %v: %w", op, err, ErrIndeterminate)
}

func (c *Client) do(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		// Lazy redial after a teardown. One quick attempt — pacing and
		// backoff belong to the caller's retry loop, which needs to see
		// ErrUnavailable promptly to count an availability dip.
		dialTO := c.callTimeout
		if dialTO <= 0 {
			dialTO = 2 * time.Second
		}
		conn, err := net.DialTimeout("tcp", c.addr, dialTO)
		if err != nil {
			return Response{}, fmt.Errorf("mocrpc: dial %s: %v: %w", c.addr, err, ErrUnavailable)
		}
		c.attach(conn)
	}
	if c.callTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.callTimeout)); err != nil {
			c.teardown()
			return Response{}, fmt.Errorf("mocrpc: deadline: %v: %w", err, ErrUnavailable)
		}
	}
	c.nextID++
	req.ID = c.nextID
	b := c.wbuf[:0]
	if c.fresh {
		b = append(b, 0, frameVersion)
	}
	b, err := appendRequest(b, req)
	c.wbuf = b
	if err != nil {
		return Response{}, fmt.Errorf("mocrpc: encode %s: %w", req.Op, err)
	}
	if _, err := c.conn.Write(b); err != nil {
		c.teardown()
		return Response{}, classify("send", err)
	}
	c.fresh = false
	var resp Response
	body, err := readFrame(c.r, &c.rbuf, maxResponseFrame)
	if err == nil {
		err = decodeResponse(body, &resp)
	}
	if err != nil {
		c.teardown()
		return Response{}, classify("recv", err)
	}
	if c.callTimeout > 0 {
		if err := c.conn.SetDeadline(time.Time{}); err != nil {
			c.teardown()
		}
	}
	if resp.ID != req.ID {
		// Request/response pairing is broken (e.g. a late answer to a
		// timed-out call); nothing on this connection can be trusted.
		c.teardown()
		return Response{}, fmt.Errorf("mocrpc: response id %d for request %d: %w", resp.ID, req.ID, ErrIndeterminate)
	}
	if !resp.OK {
		return resp, &ServerError{Msg: resp.Err}
	}
	return resp, nil
}

// Exec runs one m-operation at the daemon's process. Kind and the
// Objs/Vals conventions are documented on Request. level selects the
// consistency level for queries ("one", "quorum", "all"); empty keeps
// the store's native level, matching v1.0 clients.
func (c *Client) Exec(kind string, objs []string, vals []int64, level string) (Response, error) {
	return c.do(Request{Op: "exec", Kind: kind, Objs: objs, Vals: vals, Level: level})
}

// Ping probes daemon liveness.
func (c *Client) Ping() error {
	_, err := c.do(Request{Op: "ping"})
	return err
}

// Dump fetches the daemon's recorded execution trace.
func (c *Client) Dump() (core.Trace, error) {
	resp, err := c.do(Request{Op: "dump"})
	if err != nil {
		return core.Trace{}, err
	}
	if resp.Trace == nil {
		return core.Trace{}, fmt.Errorf("mocrpc: dump response carried no trace")
	}
	return *resp.Trace, nil
}

// Stats fetches the daemon's aggregated transport counters.
func (c *Client) Stats() (network.Stats, error) {
	resp, err := c.do(Request{Op: "stats"})
	if err != nil {
		return network.Stats{}, err
	}
	if resp.Stats == nil {
		return network.Stats{}, fmt.Errorf("mocrpc: stats response carried no stats")
	}
	return *resp.Stats, nil
}

// Info fetches the daemon's operational counters (recoveries, fault
// stats, …) — whatever the daemon registered with Server.SetInfo.
func (c *Client) Info() (map[string]int64, error) {
	resp, err := c.do(Request{Op: "info"})
	if err != nil {
		return nil, err
	}
	return resp.Info, nil
}

// Shutdown asks the daemon to exit. The acknowledgment arrives before
// the daemon starts tearing down.
func (c *Client) Shutdown() error {
	_, err := c.do(Request{Op: "shutdown"})
	return err
}
