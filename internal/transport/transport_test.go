package transport

import (
	"net"
	"testing"
	"time"

	"moc/internal/network"
	"moc/internal/network/testutil"
)

// TestTCPConformance runs the shared Link conformance suite against a
// loopback TCP cluster: every frame crosses a real kernel socket.
func TestTCPConformance(t *testing.T) {
	t.Parallel()
	testutil.RunLinkConformance(t, func(t testing.TB, cfg network.Config) network.Link {
		cluster, err := NewCluster(3)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		t.Cleanup(cluster.Close)
		link, err := cluster.Factory()("conf", cfg)
		if err != nil {
			t.Fatalf("build channel: %v", err)
		}
		t.Cleanup(link.Close)
		return link
	})
}

// TestNonOwnedSendDropped verifies the replicated-construction rule: a
// node silently drops (and counts) sends whose from-endpoint it does
// not own, so duplicated bootstrap sends — like the token ring's
// initial injection, issued by every daemon — reach the wire exactly
// once, from the owner.
func TestNonOwnedSendDropped(t *testing.T) {
	t.Parallel()
	cluster, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	links := make([]network.Link, 2)
	for i := 0; i < 2; i++ {
		l, err := cluster.Node(i).Factory()("ch", network.Config{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	// Both nodes replay the same bootstrap send from endpoint 0. Node 0
	// owns endpoint 0, so its copy is authoritative; node 1's is dropped.
	for i := 0; i < 2; i++ {
		if err := links[i].Send(0, 1, "boot", testutil.ConformancePayload{N: 9}, 4); err != nil {
			t.Fatalf("node %d Send: %v", i, err)
		}
	}
	got := testutil.Drain(t, 5*time.Second, links[1].Recv(1), 1,
		testutil.Source("node0", links[0].Stats), testutil.Source("node1", links[1].Stats))
	if len(got) != 1 {
		t.Fatal("authoritative copy not delivered")
	}
	// No second copy may arrive.
	select {
	case m := <-links[1].Recv(1):
		t.Fatalf("replica send was delivered: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
	if st := links[1].Stats(); st.Dropped != 1 || st.Messages != 0 {
		t.Fatalf("node1 stats = %+v, want exactly the dropped replica send", st)
	}
	if st := links[0].Stats(); st.Messages != 1 || st.Dropped != 0 {
		t.Fatalf("node0 stats = %+v, want exactly the authoritative send", st)
	}
}

// TestPendingBufferedUntilRegistration verifies that frames arriving
// before the destination node registers the channel are buffered and
// flushed, in order, when registration happens — daemons in a cluster
// start at different times.
func TestPendingBufferedUntilRegistration(t *testing.T) {
	t.Parallel()
	cluster, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	sender, err := cluster.Node(0).Factory()("late", network.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := sender.Send(0, 1, "early", testutil.ConformancePayload{N: i}, 8); err != nil {
			t.Fatal(err)
		}
	}
	// Give the frames time to land in node 1's pending buffer, then
	// register the channel and expect an in-order flush.
	time.Sleep(50 * time.Millisecond)
	receiver, err := cluster.Node(1).Factory()("late", network.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := testutil.Drain(t, 5*time.Second, receiver.Recv(1), n, testutil.Source("sender", sender.Stats))
	for i, m := range got {
		if p := m.Payload.(testutil.ConformancePayload); p.N != i {
			t.Fatalf("flush out of order at %d: got %d", i, p.N)
		}
	}
}

// TestSendUnregisteredPayload verifies codec errors surface at Send
// time: a payload type not registered with wire must fail the remote
// send, not vanish in the writer goroutine.
func TestSendUnregisteredPayload(t *testing.T) {
	t.Parallel()
	cluster, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	link, err := cluster.Node(0).Factory()("codec", network.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	type notRegistered struct{ X int }
	if err := link.Send(0, 1, "bad", notRegistered{X: 1}, 4); err == nil {
		t.Fatal("Send with unregistered payload type succeeded")
	}
	// Local delivery bypasses serialization, so the same payload between
	// two endpoints of one node is fine.
	if err := link.Send(0, 0, "ok", notRegistered{X: 1}, 4); err != nil {
		t.Fatalf("local Send: %v", err)
	}
}

// TestReconnectAfterPeerRestart kills one node, restarts a node at the
// same address, and verifies the peer's writer re-establishes the
// connection (counted in Stats.Reconnects) and traffic resumes.
func TestReconnectAfterPeerRestart(t *testing.T) {
	t.Parallel()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}

	nodeA, err := Listen(Config{Self: 0, Addrs: addrs, Listener: lnA})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := Listen(Config{Self: 1, Addrs: addrs, Listener: lnB})
	if err != nil {
		t.Fatal(err)
	}

	la, err := nodeA.Factory()("r", network.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := nodeB.Factory()("r", network.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Send(0, 1, "ping", testutil.ConformancePayload{N: 1}, 4); err != nil {
		t.Fatal(err)
	}
	testutil.Drain(t, 5*time.Second, lb.Recv(1), 1, testutil.Source("a", la.Stats))

	// Restart: node B goes away and a fresh node takes over its address.
	nodeB.Close()
	nodeB2, err := Listen(Config{Self: 1, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB2.Close()
	lb2, err := nodeB2.Factory()("r", network.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Keep sending until a frame lands on the restarted node. The write
	// that hits the dead connection is retried over the new one, so at
	// least one frame must get through.
	deadline := time.After(10 * time.Second)
	for delivered := false; !delivered; {
		if err := la.Send(0, 1, "ping", testutil.ConformancePayload{N: 2}, 4); err != nil {
			t.Fatal(err)
		}
		select {
		case <-lb2.Recv(1):
			delivered = true
		case <-deadline:
			testutil.DumpStats(t, testutil.Source("a", la.Stats), testutil.Source("b2", lb2.Stats))
			t.Fatal("no frame delivered after peer restart")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if st := la.Stats(); st.Reconnects < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", st.Reconnects)
	}
}

// TestBufferedReadKeepsFrameOrder drives a node's buffered reader from
// a raw connection: three frames written in one Write, then a fourth
// split across two writes, must arrive whole and in order.
func TestBufferedReadKeepsFrameOrder(t *testing.T) {
	t.Parallel()
	cluster, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	link, err := cluster.Factory()("buffered", network.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	fb := &frameBuf{}
	var ends []int
	for i := 0; i < 4; i++ {
		f := wireFrame{Channel: "buffered", From: 1, To: 0, Kind: "seq", Payload: testutil.ConformancePayload{N: i, S: "frame"}, Bytes: 8}
		if err := encodeFrame(f, fb); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(fb.b))
	}
	conn, err := net.Dial("tcp", cluster.Node(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	split := ends[2] + (ends[3]-ends[2])/2
	for _, chunk := range [][]byte{fb.b[:ends[2]], fb.b[ends[2]:split], fb.b[split:]} {
		if _, err := conn.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	got := testutil.Drain(t, 5*time.Second, link.Recv(0), 4, testutil.Source("link", link.Stats))
	for i, m := range got {
		if p := m.Payload.(testutil.ConformancePayload); p.N != i || p.S != "frame" {
			t.Fatalf("message %d = %+v, want frame %d", i, p, i)
		}
	}
}
