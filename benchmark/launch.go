package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"moc/internal/mocrpc"
	"moc/internal/network"
	"moc/internal/verify"
)

// This file owns the lifecycle of every child process the benchmark
// starts: mocd daemons and, on the monitored workload, one mocmon.
// chaos.Launch cannot pass -batch/-inflight/-shards/-trace/-monitor per
// daemon, so the benchmark launches its own.

// moduleRoot walks up from the working directory to the directory whose
// go.mod declares module moc: the repository the benchmark measures.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			sc := bufio.NewScanner(bytes.NewReader(data))
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module"); ok && strings.TrimSpace(rest) == "moc" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the moc module (no go.mod declaring module moc above the working directory)")
		}
		dir = parent
	}
}

// binaries are the programs under test, built once per invocation.
type binaries struct {
	mocd, mocmon string
	buildS       float64
}

// buildBinaries compiles mocd and mocmon from the checkout into dir.
// MOCD_BIN and MOCMON_BIN short-circuit the build with prebuilt binaries.
func buildBinaries(root, dir string) (binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	t0 := time.Now()
	build := func(env, pkg string) (string, error) {
		if bin := os.Getenv(env); bin != "" {
			if _, err := os.Stat(bin); err != nil {
				return "", fmt.Errorf("benchmark: %s: %w", env, err)
			}
			return bin, nil
		}
		bin := filepath.Join(dir, filepath.Base(pkg))
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("benchmark: build %s: %v\n%s", pkg, err, out)
		}
		return bin, nil
	}
	var b binaries
	var err error
	if b.mocd, err = build("MOCD_BIN", "moc/cmd/mocd"); err != nil {
		return binaries{}, err
	}
	if b.mocmon, err = build("MOCMON_BIN", "moc/cmd/mocmon"); err != nil {
		return binaries{}, err
	}
	b.buildS = time.Since(t0).Seconds()
	return b, nil
}

// lockedBuf collects a child's output; the exec copier writes it while
// the failure report may read it.
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

// child is one started process.
type child struct {
	name   string
	cmd    *exec.Cmd
	out    *lockedBuf
	exited chan struct{} // closed once Wait has returned
}

// children registers every live child so a signal handler can stop them
// all, whatever the main goroutine is doing.
var children struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

func startChild(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), out: &lockedBuf{}, exited: make(chan struct{})}
	c.cmd.Stdout, c.cmd.Stderr = c.out, c.out
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("benchmark: start %s: %w", name, err)
	}
	children.mu.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.mu.Unlock()
	go func() {
		_ = c.cmd.Wait() // the exit status is read from ProcessState
		children.mu.Lock()
		delete(children.live, c)
		children.mu.Unlock()
		close(c.exited)
	}()
	return c, nil
}

// stop ends the child: SIGTERM, then SIGKILL if it has not exited within
// grace. It returns once the process has been reaped.
func (c *child) stop(grace time.Duration) {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-c.exited:
	case <-time.After(grace):
		c.kill()
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill() // fails only if already gone
	<-c.exited
}

// killAllChildren is the signal and watchdog path: no drain, no grace.
func killAllChildren() {
	children.mu.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// report is the child's line in a failure report: how it ended and the
// tail of what it printed.
func (c *child) report() string {
	state := "running"
	select {
	case <-c.exited:
		state = c.cmd.ProcessState.String()
	default:
	}
	out := c.out.String()
	if len(out) > 600 {
		out = "..." + out[len(out)-600:]
	}
	return fmt.Sprintf("%s: %s\n%s", c.name, state, out)
}

// procUsage is a running child's CPU time and peak resident set, read
// from /proc so a window can be bracketed without stopping the child.
type procUsage struct {
	cpu   time.Duration
	rssMB float64
}

func (c *child) usage() procUsage {
	var u procUsage
	pid := c.cmd.Process.Pid
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the line, in clock ticks (100/s on Linux).
		if i := bytes.LastIndexByte(data, ')'); i >= 0 {
			f := strings.Fields(string(data[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				u.cpu = time.Duration(ut+st) * 10 * time.Millisecond
			}
		}
	}
	u.rssMB = peakRSSMB(fmt.Sprintf("/proc/%d/status", pid))
	return u
}

// peakRSSMB reads the peak resident set (VmHWM) from a /proc status file.
func peakRSSMB(statusPath string) float64 {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freeAddrs reserves n loopback ports. The listeners are closed before
// the children start; a parallel process could steal a port, which on
// loopback is an acceptable risk.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// cluster is a running deployment of one rpc-* workload.
type cluster struct {
	daemons     []*child
	mon         *child // nil unless monitored
	clientAddrs []string
	monRPC      string
	traceFiles  []string // per daemon, monitored only
}

// launchCluster starts the workload's processes and waits until every
// daemon answers a ping. dir receives the trace files.
func launchCluster(bins binaries, sp spec, dir string) (*cluster, error) {
	// One reservation for every port, so that no two roles can be handed
	// the same one.
	addrs, err := freeAddrs(2*replicas + 2)
	if err != nil {
		return nil, err
	}
	peers, monStream := addrs[:replicas], addrs[2*replicas]
	c := &cluster{clientAddrs: addrs[replicas : 2*replicas], monRPC: addrs[2*replicas+1]}
	if sp.monitored {
		c.mon, err = startChild("mocmon", bins.mocmon,
			"-listen", monStream, "-rpc", c.monRPC,
			"-window", strconv.Itoa(monWindow), "-report", "0")
		if err != nil {
			return nil, err
		}
	}
	epoch := strconv.FormatInt(time.Now().UnixNano(), 10)
	for i := 0; i < replicas; i++ {
		args := []string{
			"-id", strconv.Itoa(i),
			"-peers", strings.Join(peers, ","),
			"-client", c.clientAddrs[i],
			"-objects", strings.Join(sp.objectNames(), ","),
			"-consistency", sp.consistency,
			"-broadcast", "seq",
			"-epoch", epoch,
			"-batch", strconv.Itoa(sp.batch),
			"-inflight", strconv.Itoa(sp.inflight),
			"-shards", strconv.Itoa(sp.shards),
		}
		if sp.batchWindow > 0 {
			args = append(args, "-batchwindow", sp.batchWindow.String())
		}
		if sp.monitored {
			tf := filepath.Join(dir, fmt.Sprintf("node%d.trace", i))
			c.traceFiles = append(c.traceFiles, tf)
			args = append(args, "-trace", tf)
			// A stream that never carries a record holds mocmon's release
			// watermark back for ever, and replica 2 completes no client
			// operation, so only the daemons that serve clients stream.
			if i < issuers {
				args = append(args, "-monitor", monStream)
			}
		}
		d, err := startChild(fmt.Sprintf("mocd%d", i), bins.mocd, args...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.daemons = append(c.daemons, d)
	}
	for i, addr := range c.clientAddrs {
		cl, err := mocrpc.Dial(addr, 15*time.Second)
		if err == nil {
			err = cl.Ping()
			cl.Close()
		}
		if err != nil {
			report := c.report()
			c.stop()
			return nil, fmt.Errorf("benchmark: daemon %d not ready: %w\n%s", i, err, report)
		}
	}
	return c, nil
}

// stopDaemons drains every daemon (SIGTERM seals trace files and Fins
// monitor streams) and waits for them; mocmon, if any, stays up.
func (c *cluster) stopDaemons() {
	var wg sync.WaitGroup
	for _, d := range c.daemons {
		wg.Add(1)
		go func(d *child) {
			defer wg.Done()
			d.stop(8 * time.Second)
		}(d)
	}
	wg.Wait()
}

// stop ends every process of the deployment. Safe to call twice.
func (c *cluster) stop() {
	c.stopDaemons()
	if c.mon != nil {
		c.mon.stop(5 * time.Second)
	}
}

// report concatenates every child's failure-report line.
func (c *cluster) report() string {
	var sb strings.Builder
	for _, d := range c.daemons {
		sb.WriteString(d.report())
		sb.WriteByte('\n')
	}
	if c.mon != nil {
		sb.WriteString(c.mon.report())
	}
	return sb.String()
}

// daemonUsage sums the daemons' CPU time and takes the largest peak RSS.
func (c *cluster) daemonUsage() procUsage {
	var sum procUsage
	for _, d := range c.daemons {
		u := d.usage()
		sum.cpu += u.cpu
		if u.rssMB > sum.rssMB {
			sum.rssMB = u.rssMB
		}
	}
	return sum
}

// netStats merges every daemon's transport counters (the stats RPC).
func (c *cluster) netStats() (network.Stats, error) {
	var sum network.Stats
	for i, addr := range c.clientAddrs {
		cl, err := mocrpc.Dial(addr, 2*time.Second)
		if err != nil {
			return sum, err
		}
		cl.SetCallTimeout(callTimeout)
		st, err := cl.Stats()
		cl.Close()
		if err != nil {
			return sum, fmt.Errorf("benchmark: daemon %d stats: %w", i, err)
		}
		sum.Merge(st)
	}
	return sum, nil
}

// awaitVerified polls mocmon until it reports want records verified and
// returns its final stats. The daemons must have been stopped first:
// only a Fin releases the tail a live stream's watermark slack holds.
func (c *cluster) awaitVerified(want int64, limit time.Duration) (verify.Stats, error) {
	cl, err := verify.DialStatus(c.monRPC, 2*time.Second)
	if err != nil {
		return verify.Stats{}, err
	}
	defer cl.Close()
	deadline := time.Now().Add(limit)
	for {
		st, err := cl.Stats()
		if err != nil {
			return st, err
		}
		if st.Released >= want {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("benchmark: mocmon verified %d of %d records within %v", st.Released, want, limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
