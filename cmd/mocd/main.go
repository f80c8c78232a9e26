// Command mocd hosts one process of a multi-object store cluster: it
// joins the peer transport mesh (internal/transport), runs a full
// replica of the Section 5 protocol stack (core.Store over real TCP),
// and serves the client RPC front-end (internal/mocrpc) through which
// load generators issue m-operations at this process, dump the recorded
// history, and shut the daemon down.
//
// A 3-node cluster on loopback:
//
//	mocd -id 0 -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 -client 127.0.0.1:7200 &
//	mocd -id 1 -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 -client 127.0.0.1:7201 &
//	mocd -id 2 -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 -client 127.0.0.1:7202 &
//
// Every daemon must be started with the same -peers, -objects,
// -consistency, -broadcast, -epoch, -batch, -batchwindow, -inflight and
// -shards values; -id selects which peer slot (and which protocol
// process) this daemon is. The batching knobs enable the coalesced, pipelined update
// path — a daemon batching while its peers do not would still be
// correct (batches expand locally on every node) but would skew any
// cost comparison, so keep them uniform.
//
// Chaos support: -recover enables the checkpoint-transfer service (same
// flag on every daemon) and makes a (re)starting daemon solicit peer
// checkpoints before serving clients, so a SIGKILLed daemon rejoins
// with the updates it missed; -trace streams every completed operation
// to a JSON-lines file that survives kill -9 (core.ReadTraceFile);
// -resetprob and friends inject seed-driven socket faults into the peer
// transport (transport.Faults). On SIGTERM the daemon drains in-flight
// lanes before tearing down, so its trace is complete.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"moc/internal/core"
	"moc/internal/mocrpc"
	"moc/internal/mop"
	"moc/internal/shard"
	"moc/internal/transport"
	"moc/internal/verify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mocd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id          = flag.Int("id", -1, "this daemon's index into -peers (required)")
		peers       = flag.String("peers", "", "comma-separated peer transport addresses, one per daemon (required)")
		client      = flag.String("client", "", "client RPC listen address (required)")
		objects     = flag.String("objects", "x,y,z", "comma-separated shared object names")
		consistency = flag.String("consistency", "mlin", `consistency condition: "msc" or "mlin"`)
		broadcast   = flag.String("broadcast", "seq", `atomic broadcast: "seq", "lamport" or "token"`)
		epoch       = flag.Int64("epoch", 0, "shared clock epoch, unix nanoseconds (0 = daemon start; share one value across the cluster so merged traces are real-time comparable)")
		batch       = flag.Int("batch", 1, "coalesce up to this many updates into one broadcast frame (1 = unbatched; same value on every daemon)")
		batchWindow = flag.Duration("batchwindow", 0, "bound on how long a queued update waits; a batch normally goes out when the pipeline is idle, when the previous flush is delivered, or at -batch updates (0 with -batch > 1 uses the built-in default)")
		inflight    = flag.Int("inflight", 1, "updates outstanding per process (pipelined issuance; same value on every daemon)")
		shards      = flag.Int("shards", 1, "partition the object space (id mod N) into this many independent broadcast lanes; single-shard operations never cross lanes (same value on every daemon; incompatible with -recover)")

		recov        = flag.Bool("recover", false, "enable checkpoint-transfer recovery: serve checkpoints to rejoining peers and solicit one at startup (same flag on every daemon; requires -broadcast=seq and -batch=1)")
		recoverWait  = flag.Duration("recoverwait", 3*time.Second, "how long the startup checkpoint solicitation waits for peers (with -recover; failure to recover is logged, not fatal)")
		trace        = flag.String("trace", "", "stream completed operations to this JSON-lines trace file (kill-safe; merge with moccheck or internal/chaos)")
		monitorAddr  = flag.String("monitor", "", "stream completed operations to a mocmon live verification service at this address (batched, acked, resumes across reconnects)")
		queryTimeout = flag.Duration("querytimeout", 0, "m-linearizable query round-trip bound before re-solicitation (0 = protocol default; needed when peers may die mid-query)")
		queryRetries = flag.Int("queryretries", 0, "re-solicitations for a bounded query (with -querytimeout)")
		drainWait    = flag.Duration("drainwait", 5*time.Second, "how long shutdown waits for in-flight operations to drain")
		staleInject  = flag.Int("staleinject", 0, "TEST HOOK: report the Nth completed non-trivial query one version stale on its first object before it reaches the trace/monitor sinks — the store itself is untouched; a live verification service must flag the record (0 = off)")

		faultSeed   = flag.Int64("faultseed", 0, "seed for transport fault injection (0 with fault probabilities set uses seed 1)")
		resetProb   = flag.Float64("resetprob", 0, "probability an outbound frame write is turned into a connection reset")
		corruptProb = flag.Float64("corruptprob", 0, "probability an outbound frame is corrupted on the wire (the receiver must reject it)")
		faultDelay  = flag.Duration("faultdelay", 0, "fixed extra latency per outbound frame")
		faultJitter = flag.Duration("faultjitter", 0, "random extra latency per outbound frame, uniform in [0, jitter)")
		bandwidth   = flag.Int64("bandwidth", 0, "outbound transport bandwidth cap, bytes/second (0 = unlimited)")
		partitions  = flag.String("partitions", "", `timed partitions from this daemon: "peers@start:heal[;...]", e.g. "1,2@200ms:700ms" cuts peers 1 and 2 from 200ms to 700ms after daemon start`)
	)
	flag.Parse()

	addrs := splitList(*peers)
	if len(addrs) == 0 {
		return fmt.Errorf("-peers is required")
	}
	if *id < 0 || *id >= len(addrs) {
		return fmt.Errorf("-id %d out of range for %d peers", *id, len(addrs))
	}
	if *client == "" {
		return fmt.Errorf("-client is required")
	}
	names := splitList(*objects)
	if len(names) == 0 {
		return fmt.Errorf("-objects is required")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be at least 1, got %d", *batch)
	}
	if *batchWindow < 0 {
		return fmt.Errorf("-batchwindow must not be negative, got %v", *batchWindow)
	}
	if *inflight < 1 {
		return fmt.Errorf("-inflight must be at least 1, got %d", *inflight)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	}
	// The canonical spec for this cluster's shard map ("" when
	// unsharded), announced in trace headers and monitor Hellos; it must
	// match what core.New will build so merged streams agree.
	shardSpec := ""
	if *shards > 1 {
		m, err := shard.NewMap(len(names), *shards)
		if err != nil {
			return fmt.Errorf("-shards: %v", err)
		}
		shardSpec = m.Spec()
	}
	if *recov {
		if *broadcast != "seq" {
			return fmt.Errorf("-recover requires -broadcast=seq (rejoin fast-forwards the sequencer delivery sequence), got %q", *broadcast)
		}
		if *batch != 1 {
			return fmt.Errorf("-recover requires -batch=1 (the checkpoint applied count is in per-update delivery units), got %d", *batch)
		}
	}

	var cons core.Consistency
	switch *consistency {
	case "msc":
		cons = core.MSequential
	case "mlin":
		cons = core.MLinearizable
	default:
		return fmt.Errorf(`unknown -consistency %q (want "msc" or "mlin")`, *consistency)
	}
	var bcast core.BroadcastKind
	switch *broadcast {
	case "seq":
		bcast = core.SequencerBroadcast
	case "lamport":
		bcast = core.LamportBroadcast
	case "token":
		bcast = core.TokenBroadcast
	default:
		return fmt.Errorf(`unknown -broadcast %q (want "seq", "lamport" or "token")`, *broadcast)
	}
	var epochTime time.Time
	if *epoch != 0 {
		epochTime = time.Unix(0, *epoch)
	}

	var faults *transport.Faults
	parts, err := parsePartitions(*partitions)
	if err != nil {
		return err
	}
	if *resetProb > 0 || *corruptProb > 0 || *faultDelay > 0 || *faultJitter > 0 || *bandwidth > 0 || len(parts) > 0 {
		faults = &transport.Faults{
			Seed:        *faultSeed,
			ResetProb:   *resetProb,
			CorruptProb: *corruptProb,
			Delay:       *faultDelay,
			Jitter:      *faultJitter,
			Bandwidth:   *bandwidth,
			Partitions:  parts,
		}
	}

	var traceW *core.TraceFileWriter
	if *trace != "" {
		traceW, err = core.NewTraceFileWriter(*trace, *id, cons, names, shardSpec)
		if err != nil {
			return err
		}
	}

	node, err := transport.Listen(transport.Config{
		Self: *id, Addrs: addrs,
		Faults: faults, Seed: *faultSeed,
	})
	if err != nil {
		return err
	}
	storeCfg := core.Config{
		Procs:        len(addrs),
		Objects:      names,
		Consistency:  cons,
		Broadcast:    bcast,
		Links:        node.Factory(),
		Epoch:        epochTime,
		BatchWindow:  *batchWindow,
		MaxInflight:  *inflight,
		Recovery:     *recov,
		QueryTimeout: *queryTimeout,
		QueryRetries: *queryRetries,
		Shards:       *shards,
	}
	var monW *verify.StreamWriter
	if *monitorAddr != "" {
		monW = verify.NewStreamWriter(verify.WriterConfig{
			Addr: *monitorAddr, Node: *id,
			Consistency: *consistency, Objects: names,
			Shards: shardSpec,
		})
	}
	switch {
	case traceW != nil && monW != nil:
		storeCfg.RecordSink = func(rec mop.Record) {
			traceW.Append(rec)
			monW.Append(rec)
		}
	case traceW != nil:
		storeCfg.RecordSink = traceW.Append
	case monW != nil:
		storeCfg.RecordSink = monW.Append
	}
	if *staleInject > 0 && storeCfg.RecordSink != nil {
		storeCfg.RecordSink = staleInjector(*staleInject, storeCfg.RecordSink)
	}
	if *batch > 1 {
		storeCfg.BatchSize = *batch
	}
	store, err := core.New(storeCfg)
	if err != nil {
		node.Close()
		return err
	}

	if *recov {
		// Best-effort checkpoint solicitation before serving clients: a
		// cold-starting cluster gets Applied=0 offers and adopts nothing;
		// a daemon restarted after kill -9 adopts the freshest survivor
		// checkpoint and fast-forwards its delivery sequence past the
		// updates it missed. Failure (e.g. the whole cluster is cold and
		// slow to mesh) is logged, not fatal — the daemon then rejoins
		// only what it observes live.
		adopted, err := store.Recover(*id, *recoverWait)
		switch {
		case err != nil:
			fmt.Printf("mocd: node %d: startup recovery: %v\n", *id, err)
		case adopted:
			fmt.Printf("mocd: node %d: adopted a peer checkpoint\n", *id)
		default:
			fmt.Printf("mocd: node %d: local state already fresh, no checkpoint adopted\n", *id)
		}
	}

	ln, err := net.Listen("tcp", *client)
	if err != nil {
		store.Close()
		node.Close()
		return err
	}

	done := make(chan struct{})
	rpc := mocrpc.Serve(ln, store, *id, func() { close(done) })
	rpc.SetInfo(func() map[string]int64 {
		fs := node.FaultStats()
		return map[string]int64{
			"recoveries":        store.Recoveries(),
			"faultResets":       fs.Resets,
			"faultCorrupted":    fs.Corrupted,
			"faultDelayed":      fs.Delayed,
			"faultThrottled":    fs.Throttled,
			"partitionRefusals": fs.PartitionRefusals,
		}
	})
	fmt.Printf("mocd: node %d of %d up; transport %s, rpc %s, %s over %s broadcast\n",
		*id, len(addrs), node.Addr(), rpc.Addr(), cons, *broadcast)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case <-done:
	case sig := <-sigs:
		fmt.Printf("mocd: node %d: %v\n", *id, sig)
	}

	// Ordered teardown: drain in-flight m-operations so every completed
	// record reaches the trace sink (a mid-batch teardown would lose
	// them). The store must close before the RPC server: client requests
	// that arrived during the drain are parked on the drained lanes, and
	// only Close fails them — closing the RPC server first would wait on
	// those parked handlers forever. Then the transport mesh, then seal
	// the trace file.
	if err := store.Drain(*drainWait); err != nil {
		fmt.Printf("mocd: node %d: drain: %v\n", *id, err)
	}
	store.Close()
	rpc.Close()
	node.Close()
	if traceW != nil {
		if err := traceW.Close(); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if monW != nil {
		// Drain already completed, so the final flush sees every record;
		// Close ships the tail and Fins the stream.
		monW.Close()
		sent, skippedRecs, _ := monW.Stats()
		fmt.Printf("mocd: node %d: streamed %d records to monitor (%d without version vectors skipped)\n", *id, sent, skippedRecs)
	}
	fmt.Printf("mocd: node %d down\n", *id)
	return nil
}

// parsePartitions parses the -partitions spec: semicolon-separated
// windows "p1,p2@start:heal" with flag-style durations.
func parsePartitions(spec string) ([]transport.PeerPartition, error) {
	if spec == "" {
		return nil, nil
	}
	var out []transport.PeerPartition
	for _, win := range strings.Split(spec, ";") {
		win = strings.TrimSpace(win)
		if win == "" {
			continue
		}
		peersPart, window, ok := strings.Cut(win, "@")
		if !ok {
			return nil, fmt.Errorf(`-partitions window %q: want "peers@start:heal"`, win)
		}
		startPart, healPart, ok := strings.Cut(window, ":")
		if !ok {
			return nil, fmt.Errorf(`-partitions window %q: want "peers@start:heal"`, win)
		}
		var p transport.PeerPartition
		for _, f := range splitList(peersPart) {
			peer, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("-partitions window %q: bad peer %q", win, f)
			}
			p.Peers = append(p.Peers, peer)
		}
		var err error
		if p.Start, err = time.ParseDuration(startPart); err != nil {
			return nil, fmt.Errorf("-partitions window %q: %v", win, err)
		}
		if p.Heal, err = time.ParseDuration(healPart); err != nil {
			return nil, fmt.Errorf("-partitions window %q: %v", win, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// staleInjector wraps a record sink with the -staleinject test hook: it
// lets n-1 eligible query records through, then reports the nth one
// version stale on its first footprint object — TSStart and TSEnd both
// decremented, exactly what a new/old-inversion read would have
// produced. Only the *reported* record is corrupted; the store's state
// and every later record are genuine, so a live verification service
// watching the stream must flag this record and nothing else. Eligible
// means a query that observed at least version 1 (decrementing version
// 0 would claim a negative version, a different violation class).
func staleInjector(n int, sink func(mop.Record)) func(mop.Record) {
	var mu sync.Mutex
	seen := 0
	return func(rec mop.Record) {
		mu.Lock()
		if !rec.Update && rec.TSStart != nil && rec.TSEnd != nil && seen < n {
			if ids := rec.Footprint.IDs(); len(ids) > 0 && rec.TSStart.Get(ids[0]) >= 1 {
				seen++
				if seen == n {
					x := ids[0]
					rec.TSStart = rec.TSStart.Clone()
					rec.TSEnd = rec.TSEnd.Clone()
					rec.TSStart.Set(x, rec.TSStart.Get(x)-1)
					rec.TSEnd.Set(x, rec.TSEnd.Get(x)-1)
				}
			}
		}
		mu.Unlock()
		sink(rec)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
