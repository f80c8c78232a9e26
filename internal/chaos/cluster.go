// Package chaos orchestrates real mocd processes under fault injection:
// it spawns a loopback TCP cluster, SIGKILLs and restarts daemons on a
// seeded schedule, drives a paced workload through chaos-hardened
// mocrpc clients, and merges the daemons' kill-safe trace files into a
// history for the exact checkers. It is the process-level counterpart
// of network.Faults (simulated) and transport.Faults (socket-level):
// one seed drives the whole campaign, so a failure reproduces.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"moc/internal/core"
	"moc/internal/mocrpc"
)

// ClusterConfig parameterizes Launch.
type ClusterConfig struct {
	// MocdBin is the path to a built mocd binary. Required.
	MocdBin string
	// Dir is the scratch directory for trace files. Required.
	Dir string
	// N is the number of daemons. Required.
	N int
	// Objects is the shared object list.
	Objects []string
	// Consistency is "msc" or "mlin"; Broadcast is forced to "seq"
	// (recovery fast-forwards the sequencer delivery sequence).
	Consistency string
	// Shards, when > 1, starts every daemon with -shards: the object
	// space splits into that many independent sequencer lanes, with lane
	// s's coordinator endpoint owned by daemon (N+s) mod N. Sharding is
	// incompatible with checkpoint recovery, so the daemons run without
	// -recover and a killed daemon stays down (Restart must not be used).
	Shards int
	// Seed derives each daemon's fault-injection seed (Seed + id).
	Seed int64
	// ResetProb and CorruptProb inject socket faults on every daemon's
	// peer links.
	ResetProb, CorruptProb float64
	// PartitionNode, when >= 0, gives that daemon the Partitions spec —
	// timed windows relative to ITS start (see mocd -partitions).
	PartitionNode int
	Partitions    string
	// QueryTimeout bounds m-lin queries so a dead peer cannot hang
	// survivors; ignored for "msc".
	QueryTimeout time.Duration
	// SlowNode, when FaultDelay > 0, starts that daemon with mocd's
	// -faultdelay: every frame it sends to its peers carries the fixed
	// extra latency. This is the one-slow-peer configuration
	// TestSlowPeerLevels runs the consistency levels against — an ALL
	// query must wait out the slow daemon's response, a QUORUM query
	// completes without it.
	SlowNode   int
	FaultDelay time.Duration
	// MonitorAddr, when set, makes every daemon stream completed
	// records to a mocmon verification service at this address (mocd
	// -monitor); a restarted daemon opens a fresh stream generation.
	MonitorAddr string
	// StaleInject, when > 0, passes mocd's -staleinject test hook to
	// daemon StaleInjectNode: that daemon reports its Nth eligible
	// query one version stale, which a live verification service on
	// MonitorAddr must flag online. The store itself stays correct.
	StaleInject     int
	StaleInjectNode int
	// RecoverWait bounds each daemon's startup checkpoint solicitation
	// (mocd -recoverwait). Checkpoint responses ride the same faulty
	// sockets as everything else, so a corrupted response is lost and
	// Recover falls back to the freshest answer it did get only after
	// this wait — keep it short under heavy corruption. 0 = mocd default.
	RecoverWait time.Duration
	// ReadyTimeout bounds each daemon's startup ping. Default 15s.
	ReadyTimeout time.Duration
}

// Cluster is a running set of mocd processes.
type Cluster struct {
	cfg         ClusterConfig
	peerAddrs   []string
	clientAddrs []string
	epoch       string

	mu     sync.Mutex
	procs  []*exec.Cmd // nil slot = currently down
	logs   []*lockedBuf
	gens   []int      // restarts per node, for trace-file naming
	traces [][]string // every trace file ever opened, per node
}

// lockedBuf collects a daemon's output across generations; the exec
// pipe goroutines write it while the orchestrator may read it.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// freeAddrs reserves n loopback ports and returns their addresses. The
// listeners are closed before the daemons start; a parallel process
// could in principle steal a port — acceptable on loopback.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// Launch starts the full cluster (every daemon with a kill-safe trace
// file, and with -recover unless sharded) and waits until every daemon
// answers a ping.
func Launch(cfg ClusterConfig) (*Cluster, error) {
	if cfg.MocdBin == "" || cfg.Dir == "" || cfg.N <= 0 {
		return nil, errors.New("chaos: MocdBin, Dir and N are required")
	}
	if cfg.Consistency == "" {
		cfg.Consistency = "msc"
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 15 * time.Second
	}
	peerAddrs, err := freeAddrs(cfg.N)
	if err != nil {
		return nil, err
	}
	clientAddrs, err := freeAddrs(cfg.N)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:         cfg,
		peerAddrs:   peerAddrs,
		clientAddrs: clientAddrs,
		epoch:       fmt.Sprint(time.Now().UnixNano()),
		procs:       make([]*exec.Cmd, cfg.N),
		logs:        make([]*lockedBuf, cfg.N),
		gens:        make([]int, cfg.N),
		traces:      make([][]string, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		c.logs[i] = &lockedBuf{}
	}
	for i := 0; i < cfg.N; i++ {
		if err := c.start(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	for i := 0; i < cfg.N; i++ {
		if err := c.waitReady(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// start spawns daemon id (initial start or restart). Caller must not
// hold mu.
func (c *Cluster) start(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.procs[id] != nil {
		return fmt.Errorf("chaos: daemon %d already running", id)
	}
	tracePath := filepath.Join(c.cfg.Dir, fmt.Sprintf("node%d.g%d.trace", id, c.gens[id]))
	args := []string{
		"-id", fmt.Sprint(id),
		"-peers", join(c.peerAddrs),
		"-client", c.clientAddrs[id],
		"-objects", join(c.cfg.Objects),
		"-consistency", c.cfg.Consistency,
		"-broadcast", "seq",
		"-epoch", c.epoch,
		"-trace", tracePath,
	}
	if c.cfg.Shards > 1 {
		// Sharded lanes cannot adopt a checkpoint (it carries a single
		// total-order prefix), so sharded clusters run without -recover.
		args = append(args, "-shards", fmt.Sprint(c.cfg.Shards))
	} else {
		args = append(args, "-recover")
	}
	if c.cfg.MonitorAddr != "" {
		args = append(args, "-monitor", c.cfg.MonitorAddr)
	}
	if c.cfg.RecoverWait > 0 {
		args = append(args, "-recoverwait", c.cfg.RecoverWait.String())
	}
	if c.cfg.ResetProb > 0 || c.cfg.CorruptProb > 0 {
		args = append(args,
			"-faultseed", fmt.Sprint(c.cfg.Seed+int64(id)+1),
			"-resetprob", fmt.Sprint(c.cfg.ResetProb),
			"-corruptprob", fmt.Sprint(c.cfg.CorruptProb))
	}
	if id == c.cfg.PartitionNode && c.cfg.Partitions != "" {
		args = append(args, "-partitions", c.cfg.Partitions)
	}
	if id == c.cfg.SlowNode && c.cfg.FaultDelay > 0 {
		args = append(args, "-faultdelay", c.cfg.FaultDelay.String())
	}
	if id == c.cfg.StaleInjectNode && c.cfg.StaleInject > 0 {
		args = append(args, "-staleinject", fmt.Sprint(c.cfg.StaleInject))
	}
	if c.cfg.Consistency == "mlin" && c.cfg.QueryTimeout > 0 {
		args = append(args,
			"-querytimeout", c.cfg.QueryTimeout.String(),
			"-queryretries", "3")
	}
	cmd := exec.Command(c.cfg.MocdBin, args...)
	cmd.Stdout, cmd.Stderr = c.logs[id], c.logs[id]
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("chaos: start daemon %d: %w", id, err)
	}
	c.procs[id] = cmd
	c.traces[id] = append(c.traces[id], tracePath)
	return nil
}

// waitReady blocks until daemon id answers a ping.
func (c *Cluster) waitReady(id int) error {
	cl, err := mocrpc.Dial(c.clientAddrs[id], c.cfg.ReadyTimeout)
	if err != nil {
		return fmt.Errorf("chaos: daemon %d not ready within the %v start-up budget: %w", id, c.cfg.ReadyTimeout, err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		return fmt.Errorf("chaos: daemon %d ping: %w", id, err)
	}
	return nil
}

// ClientAddrs returns the daemons' RPC addresses, by id.
func (c *Cluster) ClientAddrs() []string { return c.clientAddrs }

// Kill SIGKILLs daemon id — no drain, no trace seal; the kill-safe
// trace file keeps every record completed before the kill.
func (c *Cluster) Kill(id int) error {
	c.mu.Lock()
	cmd := c.procs[id]
	c.procs[id] = nil
	c.mu.Unlock()
	if cmd == nil {
		return fmt.Errorf("chaos: daemon %d is not running", id)
	}
	if err := cmd.Process.Kill(); err != nil {
		return fmt.Errorf("chaos: kill daemon %d: %w", id, err)
	}
	_ = cmd.Wait() // reap; a kill exit is expectedly unclean
	return nil
}

// Restart brings a killed daemon back with a fresh trace file and the
// same cluster parameters; -recover makes it solicit a survivor
// checkpoint before serving clients. Blocks until it answers a ping.
func (c *Cluster) Restart(id int) error {
	c.mu.Lock()
	c.gens[id]++
	c.mu.Unlock()
	if err := c.start(id); err != nil {
		return err
	}
	return c.waitReady(id)
}

// Info fetches daemon id's operational counters. A daemon that is down
// fails at once rather than after a dial timeout.
func (c *Cluster) Info(id int) (map[string]int64, error) {
	c.mu.Lock()
	up := c.procs[id] != nil
	c.mu.Unlock()
	if !up {
		return nil, fmt.Errorf("chaos: daemon %d is not running", id)
	}
	cl, err := mocrpc.Dial(c.clientAddrs[id], 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.Info()
}

// SigtermAll gracefully stops every running daemon (drain, seal trace,
// exit 0) and reports the first unclean exit.
func (c *Cluster) SigtermAll(timeout time.Duration) error {
	c.mu.Lock()
	live := make([]*exec.Cmd, len(c.procs))
	copy(live, c.procs)
	for i := range c.procs {
		c.procs[i] = nil
	}
	c.mu.Unlock()

	var firstErr error
	for id, cmd := range live {
		if cmd == nil {
			continue
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("chaos: signal daemon %d: %w", id, err)
		}
	}
	deadline := time.After(timeout)
	for id, cmd := range live {
		if cmd == nil {
			continue
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("chaos: daemon %d exited uncleanly: %w", id, err)
			}
		case <-deadline:
			cmd.Process.Kill()
			<-done
			if firstErr == nil {
				firstErr = fmt.Errorf("chaos: daemon %d did not exit within %v of SIGTERM", id, timeout)
			}
		}
	}
	return firstErr
}

// Close force-kills anything still running (cleanup path; prefer
// SigtermAll for graceful shutdown).
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cmd := range c.procs {
		if cmd != nil {
			cmd.Process.Kill()
			cmd.Wait()
			c.procs[i] = nil
		}
	}
}

// Traces reads every trace file the cluster ever opened — including
// the pre-kill generations of restarted daemons — ready for
// core.MergeTraces. Files that were created but never got a header
// (daemon died before its first write) are skipped. Files are read in
// lenient mode (a SIGKILL can tear a line mid-file when appends race
// the kill, and the campaign's fault injector mangles bytes on
// purpose); the second result counts interior lines skipped as corrupt
// across all files, which the campaign reports rather than fails on —
// a torn trace is a lossy feed, not an inconsistent history.
func (c *Cluster) Traces() ([]core.Trace, int, error) {
	c.mu.Lock()
	var paths []string
	for _, gens := range c.traces {
		paths = append(paths, gens...)
	}
	c.mu.Unlock()
	var out []core.Trace
	torn := 0
	for _, path := range paths {
		tr, skipped, err := core.ReadTraceFileLenient(path)
		if err != nil {
			if st, statErr := os.Stat(path); statErr == nil && st.Size() == 0 {
				continue
			}
			return nil, 0, err
		}
		torn += skipped
		out = append(out, tr)
	}
	if len(out) == 0 {
		return nil, 0, errors.New("chaos: no usable trace files")
	}
	return out, torn, nil
}

// Logs returns each daemon's combined stdout/stderr (all generations).
func (c *Cluster) Logs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.logs))
	for i, buf := range c.logs {
		out[i] = buf.String()
	}
	return out
}

func join(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += ","
		}
		s += p
	}
	return s
}
