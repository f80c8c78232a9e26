// Command mocsim runs one of the paper's protocols under a randomized
// multi-object workload, prints the recorded execution history, and
// verifies the configured consistency condition. msc and mlin run a
// core.Store (Figures 4 and 6, the polynomial Theorem 7 procedure);
// oolock (Section 4's locking protocol, Theorem 7's OO branch) and causal
// (the m-causal extension, the exact per-view decider) are driven
// directly.
//
// Usage:
//
//	mocsim -consistency mlin -procs 4 -objects 6 -ops 8 -readfrac 0.5 \
//	       -maxdelay 2ms -seed 7 [-broadcast sequencer|lamport|token] \
//	       [-relevant] [-json] [-batch 8] [-batchwindow 200us] [-inflight 32] \
//	       [-drop 0.2] [-dup 0.05] [-partition 50ms] \
//	       [-crash 1@40ms,2@80ms] [-restart 1@160ms]
//
// The -batch, -batchwindow and -inflight flags enable the batched,
// pipelined update path of the broadcast consistencies (msc, mlin):
// updates queued within the window are coalesced into one broadcast
// frame of up to -batch updates, and each process may keep up to
// -inflight updates outstanding. The defaults (1, 0, 1) reproduce the
// unbatched one-at-a-time behavior exactly.
//
// The -drop, -dup and -partition flags enable fault injection: messages
// are dropped/duplicated with the given probabilities, and -partition
// isolates the first half of the processes from the second half from
// startup until the given duration elapses. The reliable delivery layer
// (sequence numbers, acks, retransmission) restores exactly-once
// delivery underneath the protocols, and the run reports the fault and
// retransmission counters.
//
// The -crash and -restart flags schedule crash-stop process failures:
// each comma-separated proc@time entry takes the process down (or brings
// it back up) at the given instant after startup. A crashed endpoint
// sends and receives nothing; heartbeat failure detection, sequencer
// failover, and checkpointed recovery are enabled automatically so the
// survivors keep making progress and a restarted process rejoins via
// state transfer. Only the sequencer fails over, so -crash requires
// -broadcast sequencer (the default). A process crashed without a
// matching -restart entry never comes back, so operations issued at it
// after the crash instant stall — schedule restarts (or keep crashed
// processes idle) when the workload must complete.
//
// Invalid flag values (probabilities outside [0,1), non-positive counts,
// malformed or inconsistent crash schedules) are rejected with a message
// and exit code 2 before the run starts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"moc/internal/causal"
	"moc/internal/checker"
	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/network"
	"moc/internal/object"
	"moc/internal/oolock"
	"moc/internal/workload"
)

// usageError marks a flag-validation failure, reported with exit code 2
// (the conventional usage-error code) before any store is built.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program with its streams and exit code explicit, so
// tests can drive every exit path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	err := simulate(args, stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "mocsim:", err)
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// parseSchedule parses a comma-separated list of proc@time entries
// (e.g. "1@40ms,2@80ms") into per-process instants.
func parseSchedule(flagName, spec string, procs int) (map[int]time.Duration, error) {
	out := make(map[int]time.Duration)
	if spec == "" {
		return out, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		at := strings.Split(entry, "@")
		if len(at) != 2 {
			return nil, usageError{fmt.Sprintf("-%s entry %q is not proc@time (e.g. 1@40ms)", flagName, entry)}
		}
		proc, err := strconv.Atoi(at[0])
		if err != nil || proc < 0 || proc >= procs {
			return nil, usageError{fmt.Sprintf("-%s entry %q: process must be an integer in [0, %d)", flagName, entry, procs)}
		}
		if _, dup := out[proc]; dup {
			return nil, usageError{fmt.Sprintf("-%s lists process %d twice", flagName, proc)}
		}
		d, err := time.ParseDuration(at[1])
		if err != nil || d < 0 {
			return nil, usageError{fmt.Sprintf("-%s entry %q: bad duration", flagName, entry)}
		}
		out[proc] = d
	}
	return out, nil
}

// simulate parses args, runs the workload and reports the verdict.
func simulate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		consistency = fs.String("consistency", "mlin", `consistency condition: "msc", "mlin", "oolock" or "causal"`)
		broadcast   = fs.String("broadcast", "sequencer", `atomic broadcast: "sequencer", "lamport" or "token"`)
		procs       = fs.Int("procs", 4, "number of processes")
		objects     = fs.Int("objects", 6, "number of shared objects")
		ops         = fs.Int("ops", 8, "m-operations per process")
		readFrac    = fs.Float64("readfrac", 0.5, "fraction of query m-operations")
		span        = fs.Int("span", 2, "objects touched per m-operation")
		maxDelay    = fs.Duration("maxdelay", 2*time.Millisecond, "maximum network delay")
		seed        = fs.Int64("seed", 1, "randomness seed")
		relevant    = fs.Bool("relevant", false, "mlin: send only relevant objects in query responses")
		batch       = fs.Int("batch", 1, "msc/mlin: coalesce up to this many updates into one broadcast frame (1 = unbatched)")
		batchWindow = fs.Duration("batchwindow", 0, "msc/mlin: bound on how long a queued update waits; a batch normally goes out when the pipeline is idle, when the previous flush is delivered, or at -batch updates (0 with -batch > 1 uses the built-in default)")
		inflight    = fs.Int("inflight", 1, "msc/mlin: updates outstanding per process (pipelined issuance)")
		drop        = fs.Float64("drop", 0, "fault injection: per-message drop probability in [0,1)")
		dup         = fs.Float64("dup", 0, "fault injection: per-message duplication probability in [0,1)")
		partition   = fs.Duration("partition", 0, "fault injection: partition the first half of the processes from the rest until this duration elapses")
		crash       = fs.String("crash", "", `crash-stop schedule: comma-separated proc@time entries (e.g. "1@40ms,2@80ms")`)
		restart     = fs.String("restart", "", `restart schedule matching -crash: comma-separated proc@time entries (e.g. "1@160ms")`)
		shards      = fs.Int("shards", 1, "msc/mlin: partition the object space (id mod N) into this many independent broadcast lanes; cross-shard m-operations run the three-phase ticket/close/commit merge")
		level       = fs.String("level", "", `consistency level for queries: "one", "quorum" or "all" (empty = the store's native level; "quorum"/"all" need -consistency mlin, "one" also works with msc)`)
		emitJSON    = fs.Bool("json", false, "print the recorded history as JSON")
		timeline    = fs.Bool("timeline", false, "render the history as per-process lanes (paper-figure style)")
		dot         = fs.Bool("dot", false, "emit the history's relations as Graphviz DOT on stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err.Error()}
	}

	// Validate everything before building the store: a bad value should
	// produce a usage message and exit code 2, not a late panic deep in
	// the protocol stack or a silently meaningless run.
	if *procs <= 0 {
		return usageError{fmt.Sprintf("-procs must be positive, got %d", *procs)}
	}
	if *objects <= 0 {
		return usageError{fmt.Sprintf("-objects must be positive, got %d", *objects)}
	}
	if *ops <= 0 {
		return usageError{fmt.Sprintf("-ops must be positive, got %d", *ops)}
	}
	if *readFrac < 0 || *readFrac > 1 {
		return usageError{fmt.Sprintf("-readfrac %v outside [0, 1]", *readFrac)}
	}
	if *drop < 0 || *drop >= 1 {
		return usageError{fmt.Sprintf("-drop %v outside [0, 1)", *drop)}
	}
	if *dup < 0 || *dup >= 1 {
		return usageError{fmt.Sprintf("-dup %v outside [0, 1)", *dup)}
	}
	if *partition < 0 {
		return usageError{fmt.Sprintf("-partition must not be negative, got %v", *partition)}
	}
	if *batch < 1 {
		return usageError{fmt.Sprintf("-batch must be at least 1, got %d", *batch)}
	}
	if *batchWindow < 0 {
		return usageError{fmt.Sprintf("-batchwindow must not be negative, got %v", *batchWindow)}
	}
	if *inflight < 1 {
		return usageError{fmt.Sprintf("-inflight must be at least 1, got %d", *inflight)}
	}
	if (*batch > 1 || *batchWindow > 0 || *inflight > 1) &&
		*consistency != "msc" && *consistency != "mlin" {
		return usageError{fmt.Sprintf("-batch/-batchwindow/-inflight apply to the broadcast consistencies (msc, mlin), not %q", *consistency)}
	}
	if *shards < 1 {
		return usageError{fmt.Sprintf("-shards must be at least 1, got %d", *shards)}
	}
	if *shards > 1 {
		if *consistency != "msc" && *consistency != "mlin" {
			return usageError{fmt.Sprintf("-shards applies to the broadcast consistencies (msc, mlin), not %q", *consistency)}
		}
		if *shards > *objects {
			return usageError{fmt.Sprintf("-shards %d exceeds -objects %d (a shard would be empty)", *shards, *objects)}
		}
		if *crash != "" {
			return usageError{"-shards cannot be combined with -crash (per-lane failover is not coordinated)"}
		}
	}
	if *crash != "" && *broadcast != "sequencer" {
		return usageError{fmt.Sprintf("-crash needs -broadcast sequencer, not %q (only the sequencer fails over)", *broadcast)}
	}
	queryLevel, err := history.ParseLevel(*level)
	if err != nil {
		return usageError{fmt.Sprintf("-level: %v", err)}
	}
	switch queryLevel {
	case history.LevelDefault:
	case history.LevelOne:
		if *consistency != "mlin" && *consistency != "msc" {
			return usageError{fmt.Sprintf(`-level one needs -consistency mlin or msc, not %q`, *consistency)}
		}
	default:
		if *consistency != "mlin" {
			return usageError{fmt.Sprintf(`-level %s needs -consistency mlin, not %q`, queryLevel, *consistency)}
		}
	}
	crashes, err := parseSchedule("crash", *crash, *procs)
	if err != nil {
		return err
	}
	restarts, err := parseSchedule("restart", *restart, *procs)
	if err != nil {
		return err
	}
	for proc, at := range restarts {
		crashAt, ok := crashes[proc]
		if !ok {
			return usageError{fmt.Sprintf("-restart lists process %d, which -crash never crashes", proc)}
		}
		if at <= crashAt {
			return usageError{fmt.Sprintf("-restart brings process %d back at %v, not after its crash at %v", proc, at, crashAt)}
		}
	}

	cfg := core.Config{
		Procs:        *procs,
		Consistency:  core.MLinearizable,
		Seed:         *seed,
		MaxDelay:     *maxDelay,
		RelevantOnly: *relevant,
		BatchWindow:  *batchWindow,
		MaxInflight:  *inflight,
		Shards:       *shards,
	}
	if *batch > 1 {
		cfg.BatchSize = *batch
	}
	switch *broadcast {
	case "sequencer":
		cfg.Broadcast = core.SequencerBroadcast
	case "lamport":
		cfg.Broadcast = core.LamportBroadcast
	case "token":
		cfg.Broadcast = core.TokenBroadcast
	default:
		return fmt.Errorf("unknown broadcast %q", *broadcast)
	}
	reg := object.Sequential(*objects)
	cfg.Objects = reg.Names()

	faulty := *drop > 0 || *dup > 0 || *partition > 0 || len(crashes) > 0
	if faulty {
		faults := &network.Faults{DropProb: *drop, DupProb: *dup}
		if *partition > 0 {
			side := make([]int, 0, *procs/2)
			for p := 0; p < *procs/2; p++ {
				side = append(side, p)
			}
			faults.Partitions = []network.Partition{{Side: side, Start: 0, Heal: *partition}}
		}
		for proc, at := range crashes {
			faults.Crashes = append(faults.Crashes, network.Crash{Proc: proc, At: at, Restart: restarts[proc]})
		}
		cfg.Faults = faults
	}

	var s *core.Store // stays nil for oolock and causal, which no store mounts
	var sim target
	switch *consistency {
	case "oolock", "causal":
		if sim, err = openProtocol(*consistency, reg, cfg); err != nil {
			return err
		}
	case "msc", "mlin":
		if *consistency == "msc" {
			cfg.Consistency = core.MSequential
		}
		if s, err = core.New(cfg); err != nil {
			return err
		}
		sim = target{
			condition: s.Consistency().String(),
			exec: func(proc int, pr mop.Procedure, opts core.ExecOptions) error {
				p, err := s.Process(proc)
				if err == nil {
					_, err = p.Exec(pr, opts)
				}
				return err
			},
			verify: s.Verify,
			stats:  s.NetStats,
			close:  s.Close,
		}
	default:
		return fmt.Errorf("unknown consistency %q", *consistency)
	}
	defer sim.close()

	mix := workload.Mix{ReadFrac: *readFrac, Span: *span, OpsPerProc: *ops}
	plans := mix.Plan(*procs, *objects, rand.New(rand.NewSource(*seed)))

	var wg sync.WaitGroup
	errCh := make(chan error, *procs)
	for pi := 0; pi < *procs; pi++ {
		wg.Add(1)
		go func(pi int, plan []workload.Op) {
			defer wg.Done()
			for _, op := range plan {
				var pr mop.Procedure
				var opts core.ExecOptions
				if op.Query {
					pr = mop.MultiRead{Xs: op.Objs}
					opts.Level = queryLevel
				} else {
					writes := make(map[object.ID]object.Value, len(op.Objs))
					for i, x := range op.Objs {
						writes[x] = op.Vals[i]
					}
					pr = mop.MAssign{Writes: writes}
				}
				if err := sim.exec(pi, pr, opts); err != nil {
					errCh <- err
					return
				}
			}
		}(pi, plans[pi])
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}

	// A leveled mlin run is checked with the composed exact deciders
	// (full history at m-SC, strong subset at m-lin); everything else
	// keeps the polynomial Theorem 7 check at the native condition.
	leveled := queryLevel != history.LevelDefault && *consistency == "mlin"
	var res core.VerifyResult
	if leveled {
		res, err = s.VerifyLeveled()
	} else {
		res, err = sim.verify()
	}
	if err != nil {
		return err
	}

	if *dot {
		base := history.MLinearizableBase
		if cfg.Consistency == core.MSequential {
			base = history.MSequentialBase
		}
		return res.History.DOT(stdout, base)
	}

	// In JSON mode only the history goes to stdout (so the output can be
	// piped into moccheck); the human-readable summary goes to stderr.
	summary := stdout
	if *emitJSON {
		summary = stderr
		data, err := json.MarshalIndent(res.History, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	} else if *timeline {
		fmt.Fprintf(stdout, "recorded %d m-operations across %d processes:\n",
			res.History.Len()-1, *procs)
		if err := res.History.Timeline(stdout); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "recorded %d m-operations across %d processes:\n",
			res.History.Len()-1, *procs)
		for _, m := range res.History.MOps()[1:] {
			fmt.Fprintf(stdout, "  %s\n", m)
		}
	}

	condition := sim.condition
	if leveled {
		condition = fmt.Sprintf("mixed-level (queries at %s): m-SC overall, m-lin on the strong subset", queryLevel)
	}
	if *shards > 1 {
		fmt.Fprintf(summary, "shards: %s (%d lanes)\n", s.ShardSpec(), *shards)
	}
	fmt.Fprintf(summary, "consistency: %s; verified: %v\n", condition, res.OK)
	if !res.OK {
		return fmt.Errorf("history failed %s verification — protocol bug", condition)
	}
	fmt.Fprintf(summary, "legal sequential witness: %s\n", res.Witness)
	ns := sim.stats()
	if s != nil {
		msgs, bytes := s.BroadcastCost()
		fmt.Fprintf(summary, "broadcast traffic: %d msgs, %d bytes; query traffic: %d msgs, %d bytes\n",
			msgs, bytes, s.QueryTraffic().Messages, s.QueryTraffic().Bytes)
	} else {
		fmt.Fprintf(summary, "%s traffic: %d msgs, %d bytes\n", *consistency, ns.Messages, ns.Bytes)
	}
	if faulty {
		fmt.Fprintf(summary, "fault injection: %d dropped, %d duplicated, %d retransmitted\n",
			ns.Dropped, ns.Duplicated, ns.Retransmitted)
		if len(crashes) > 0 {
			// Crash/restart counters are per-transport (a store runs several
			// networks under one schedule), so report the schedule itself
			// plus the recoveries actually performed.
			var recoveries int64 // oolock and causal have no checkpoint transfer
			if s != nil {
				recoveries = s.Recoveries()
			}
			fmt.Fprintf(summary, "crash schedule: %d crashes, %d restarts, %d checkpoint recoveries\n",
				len(crashes), len(restarts), recoveries)
		}
	}
	return nil
}

// target is the protocol a run drives: a core.Store, or the oolock or
// causal protocol directly.
type target struct {
	condition string // the condition verify checks
	exec      func(proc int, pr mop.Procedure, opts core.ExecOptions) error
	verify    func() (core.VerifyResult, error)
	stats     func() network.Stats // every network the protocol runs on
	close     func()
}

// openProtocol starts oolock or causal over reg and cfg's processes and
// network. Its exec keeps every record; verify rebuilds the history with
// core.BuildHistory and checks the protocol's own condition:
// m-linearizability by Theorem 7's OO branch (oolock), or m-causal
// consistency by the exact per-view decider (causal, which has no
// Theorem 7 shortcut).
func openProtocol(name string, reg *object.Registry, cfg core.Config) (target, error) {
	var p interface {
		Exec(proc int, pr mop.Procedure, opts mop.ExecOptions) (mop.Record, error)
		Traffic() network.Stats
		Close()
	}
	var err error
	var recs []mop.Record // complete once every exec has returned
	t := target{condition: "m-linearizable-locking", verify: func() (core.VerifyResult, error) {
		return core.VerifyOO(reg, recs, history.MLinearizableBase)
	}}
	if name == "oolock" {
		p, err = oolock.New(oolock.Config{Procs: cfg.Procs, Reg: reg, Seed: cfg.Seed, MaxDelay: cfg.MaxDelay, Faults: cfg.Faults})
	} else {
		p, err = causal.New(causal.Config{Procs: cfg.Procs, Reg: reg, Seed: cfg.Seed, MaxDelay: cfg.MaxDelay, Faults: cfg.Faults})
		t.condition = "m-causal"
		t.verify = func() (core.VerifyResult, error) {
			h, _, err := core.BuildHistory(reg, recs)
			if err != nil {
				return core.VerifyResult{}, err
			}
			res, err := checker.MCausallyConsistent(h)
			return core.VerifyResult{OK: res.Consistent, History: h}, err
		}
	}
	if err != nil {
		return target{}, err
	}
	var mu sync.Mutex
	t.exec = func(proc int, pr mop.Procedure, opts core.ExecOptions) error {
		rec, err := p.Exec(proc, pr, opts)
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
		return err
	}
	t.stats, t.close = p.Traffic, p.Close
	return t, nil
}
