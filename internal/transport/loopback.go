package transport

import (
	"fmt"
	"net"

	"moc/internal/network"
)

// Cluster is an in-process loopback TCP cluster: n Nodes, each bound to
// a 127.0.0.1 port, exchanging real frames through the kernel. It lets
// a single test or benchmark run the full serialize → TCP → deserialize
// path without spawning OS processes.
type Cluster struct {
	nodes []*Node
}

// NewCluster binds n loopback listeners on ephemeral ports, assembles
// the shared address list, and starts one Node per address.
func NewCluster(n int) (*Cluster, error) {
	return newCluster(n, nil)
}

// NewFaultyCluster is NewCluster with the same fault-injection config
// installed on every node. Each direction of every peer pair is then
// faulted by its sending side, which reproduces the symmetric faults
// the simulated network injects centrally.
func NewFaultyCluster(n int, faults Faults) (*Cluster, error) {
	return newCluster(n, &faults)
}

func newCluster(n int, faults *Faults) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: cluster size %d", n)
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, fmt.Errorf("transport: bind loopback: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	c := &Cluster{nodes: make([]*Node, n)}
	for i := 0; i < n; i++ {
		node, err := Listen(Config{Self: i, Addrs: addrs, Listener: lns[i], Faults: faults})
		if err != nil {
			c.Close()
			for j := i; j < n; j++ {
				lns[j].Close()
			}
			return nil, err
		}
		c.nodes[i] = node
	}
	return c, nil
}

// Node returns cluster member i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Addrs returns the cluster's address list in node order.
func (c *Cluster) Addrs() []string {
	addrs := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		addrs[i] = n.Addr()
	}
	return addrs
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// Factory returns a network.Factory that builds each named channel on
// every node and presents the union as a single Link. Sends route
// through the node owning the from-endpoint (so they are accepted, not
// dropped as replicas), and Recv(p) reads from the node owning p —
// exactly how a protocol stack distributed across the daemons would see
// the channel. This is what lets one in-process core.Store drive real
// TCP: the store's n protocol endpoints live on n distinct nodes.
func (c *Cluster) Factory() network.Factory {
	return func(name string, cfg network.Config) (network.Link, error) {
		parts := make([]*tcpLink, len(c.nodes))
		for i, node := range c.nodes {
			l, err := node.Factory()(name, cfg)
			if err != nil {
				for j := 0; j < i; j++ {
					parts[j].Close()
				}
				return nil, err
			}
			parts[i] = l.(*tcpLink)
		}
		return &clusterLink{cluster: c, parts: parts, endpoints: cfg.Procs}, nil
	}
}

// clusterLink presents one logical channel built on every cluster node
// as a single network.Link.
type clusterLink struct {
	cluster   *Cluster
	parts     []*tcpLink
	endpoints int
}

var _ network.Link = (*clusterLink)(nil)

func (cl *clusterLink) owner(endpoint int) int { return endpoint % len(cl.parts) }

func (cl *clusterLink) Send(from, to int, kind string, payload any, bytes int) error {
	if from < 0 || from >= cl.endpoints || to < 0 || to >= cl.endpoints {
		return fmt.Errorf("transport: endpoint out of range: %d -> %d (of %d)", from, to, cl.endpoints)
	}
	return cl.parts[cl.owner(from)].Send(from, to, kind, payload, bytes)
}

func (cl *clusterLink) Broadcast(from int, kind string, payload any, bytes int) error {
	if from < 0 || from >= cl.endpoints {
		return fmt.Errorf("transport: endpoint %d out of range (of %d)", from, cl.endpoints)
	}
	return cl.parts[cl.owner(from)].Broadcast(from, kind, payload, bytes)
}

func (cl *clusterLink) Recv(p int) <-chan network.Message {
	return cl.parts[cl.owner(p)].Recv(p)
}

// Stats merges the per-node channel stats. Send-side counters sum
// cleanly; Reconnects is each node's node-wide count, summed.
func (cl *clusterLink) Stats() network.Stats {
	var st network.Stats
	for _, p := range cl.parts {
		st.Merge(p.Stats())
	}
	return st
}

func (cl *clusterLink) Procs() int { return cl.endpoints }

// Down reports whether any cluster node's writer toward p's owner is
// in reconnect backoff — the union of the per-node views, since the
// logical channel spans every node.
func (cl *clusterLink) Down(p int) bool {
	for _, part := range cl.parts {
		if part.Down(p) {
			return true
		}
	}
	return false
}

func (cl *clusterLink) Close() {
	for _, p := range cl.parts {
		p.Close()
	}
}
