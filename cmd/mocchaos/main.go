// Command mocchaos runs a seeded chaos campaign against a real mocd
// cluster on loopback TCP: socket-level fault injection (resets,
// corruption, a timed partition), one SIGKILL + checkpoint rejoin, and
// a paced workload whose merged kill-safe traces are validated by the
// exact checkers. It is the CLI face of internal/chaos — the same
// campaign the chaos-smoke test runs.
//
//	mocchaos -seed 23 -n 3 -kill 2 -phasea 2s -phaseb 1.5s -phasec 2s
//
// A flag that does not parse exits 2 before mocd is built; a failed or
// rejected campaign exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"moc/internal/chaos"
	"moc/internal/monitor"
	"moc/internal/verify"
)

// usageError marks a flag that does not parse, reported with exit code 2
// before mocd is built.
type usageError struct{ error }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program with its streams and exit code explicit, so
// tests can drive the usage errors in-process.
func run(args []string, stdout, stderr io.Writer) int {
	err := mocchaos(args, stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if errors.As(err, new(usageError)) {
		return 2 // the flag set already printed the error and the usage
	}
	fmt.Fprintln(stderr, "mocchaos:", err)
	return 1
}

func mocchaos(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mocchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mocdBin     = fs.String("mocd", "", "path to a built mocd binary (empty = go build one into a temp dir)")
		n           = fs.Int("n", 3, "daemons in the cluster")
		objects     = fs.String("objects", "a,b,c", "comma-separated shared object names")
		consistency = fs.String("consistency", "msc", `consistency condition: "msc" or "mlin"`)
		seed        = fs.Int64("seed", 23, "campaign seed (drives fault injection and the workload mix)")
		resetProb   = fs.Float64("resetprob", 0.05, "socket reset probability per outbound frame")
		corruptProb = fs.Float64("corruptprob", 0.05, "frame corruption probability per outbound frame")
		partNode    = fs.Int("partnode", 1, "daemon carrying the partition window (-1 = none)")
		partitions  = fs.String("partitions", "0@250ms:600ms", "partition windows for -partnode (mocd -partitions syntax)")
		kill        = fs.Int("kill", 2, "daemon to SIGKILL at the phase A/B boundary; at least 2 objects must keep a live lane coordinator, so not daemon 0, the sequencer host")
		phaseA      = fs.Duration("phasea", 2*time.Second, "phase A length (full cluster under faults)")
		phaseB      = fs.Duration("phaseb", 1500*time.Millisecond, "phase B length (one daemon down)")
		phaseC      = fs.Duration("phasec", 2*time.Second, "phase C length (after checkpoint rejoin)")
		pace        = fs.Duration("pace", 50*time.Millisecond, "per-worker gap between operations (bounds the merged history for the exact checkers)")
		readFrac    = fs.Float64("readfrac", 0.5, "fraction of query operations")
		callTimeout = fs.Duration("calltimeout", 2*time.Second, "per-RPC deadline")
		recoverWait = fs.Duration("recoverwait", time.Second, "restarted daemon's checkpoint solicitation wait")
		liveMon     = fs.Bool("monitor", false, "run an in-process live verification service (internal/verify) and stream every daemon's records to it; the campaign fails on any online violation")
		monWindow   = fs.Int("monwindow", 1<<18, "live verification GC window in records (with -monitor)")
		jsonOut     = fs.String("json", "", "write the full campaign result as JSON to this file (- = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}

	bin := *mocdBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "mocchaos")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if bin, err = chaos.BuildMocd(dir, false); err != nil {
			return err
		}
	}
	traceDir, err := os.MkdirTemp("", "mocchaos-traces")
	if err != nil {
		return err
	}
	defer os.RemoveAll(traceDir)

	var svc *verify.Service
	var monitorAddr string
	if *liveMon {
		streamLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		svc = verify.NewService(streamLn, nil, verify.ServiceConfig{Window: *monWindow}, nil)
		monitorAddr = streamLn.Addr().String()
		fmt.Fprintf(stdout, "live verification: streaming to in-process service at %s (window %d)\n", monitorAddr, *monWindow)
	}

	res, err := chaos.RunCampaign(chaos.CampaignConfig{
		Cluster: chaos.ClusterConfig{
			MocdBin:       bin,
			Dir:           traceDir,
			N:             *n,
			Objects:       splitList(*objects),
			Consistency:   *consistency,
			Seed:          *seed,
			ResetProb:     *resetProb,
			CorruptProb:   *corruptProb,
			PartitionNode: *partNode,
			Partitions:    *partitions,
			QueryTimeout:  time.Second,
			RecoverWait:   *recoverWait,
			MonitorAddr:   monitorAddr,
		},
		Kill:        *kill,
		PhaseA:      *phaseA,
		PhaseB:      *phaseB,
		PhaseC:      *phaseC,
		Pace:        *pace,
		ReadFrac:    *readFrac,
		CallTimeout: *callTimeout,
	})
	if err != nil {
		if res != nil {
			for i, log := range res.Logs {
				fmt.Fprintf(stderr, "daemon %d output:\n%s\n", i, log)
			}
		}
		return err
	}

	fmt.Fprintf(stdout, "campaign: %d attempts, %d ok, %d unavailable, %d indeterminate, %d server errors\n",
		res.Attempts, res.OK, res.Unavailable, res.Indeterminate, res.ServerErrors)
	fmt.Fprintf(stdout, "latency: p50 %v, p99 %v (first-attempt to success, retries included)\n", res.P50, res.P99)
	fmt.Fprintf(stdout, "schedule: kill node %d at %v, restart at %v; recoveries=%d\n",
		*kill, res.KillAt.Round(time.Millisecond), res.RestartAt.Round(time.Millisecond), res.Recoveries)
	fmt.Fprintf(stdout, "injected: %d resets, %d corruptions, %d partition refusals\n",
		res.FaultResets, res.FaultCorrupted, res.PartitionRefusals)
	fmt.Fprintln(stdout, "availability timeline (per bucket: ok/attempts):")
	for _, b := range res.Buckets {
		marker := ""
		if res.KillAt >= b.Start && res.KillAt < b.Start+100*time.Millisecond {
			marker = "  <- SIGKILL"
		}
		if res.RestartAt >= b.Start && res.RestartAt < b.Start+100*time.Millisecond {
			marker += "  <- restart"
		}
		fmt.Fprintf(stdout, "  %6v  %3d/%-3d %s%s\n", b.Start.Round(time.Millisecond), b.OK, b.Attempts,
			bar(b.OK, b.Attempts), marker)
	}
	verdict := "ACCEPTED"
	if !res.Accepted {
		verdict = "REJECTED"
	}
	fmt.Fprintf(stdout, "merged history: %d records, exact checker: %s\n", res.Records, verdict)

	var monViolations []monitor.Violation
	if svc != nil {
		svc.Close()
		if pipe := svc.Pipeline(); pipe != nil {
			monViolations = pipe.Finish()
			st := pipe.Snapshot()
			fmt.Fprintf(stdout, "live verification: %d records verified online, %d violations, %d dangling (kill-lost writers), heap high water %.1f MB\n",
				st.Released, len(monViolations), st.Monitor.DanglingReads+st.Checker.DanglingReads,
				float64(st.HeapHW)/(1<<20))
			for i, v := range monViolations {
				if i == 10 {
					fmt.Fprintf(stdout, "  ... %d more\n", len(monViolations)-10)
					break
				}
				fmt.Fprintf(stdout, "  %s\n", v)
			}
		} else {
			fmt.Fprintln(stdout, "live verification: no daemon stream ever connected")
		}
	}

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if *jsonOut == "-" {
			fmt.Fprintln(stdout, string(blob))
		} else if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			return err
		}
	}
	if !res.Accepted {
		return fmt.Errorf("exact checker rejected the merged chaos history")
	}
	if len(monViolations) > 0 {
		return fmt.Errorf("live verification flagged %d violations", len(monViolations))
	}
	return nil
}

func bar(ok, total int64) string {
	if total == 0 {
		return ""
	}
	width := int(ok * 20 / total)
	s := ""
	for i := 0; i < 20; i++ {
		if i < width {
			s += "#"
		} else {
			s += "."
		}
	}
	return s
}

func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if part := s[start:i]; part != "" {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	return out
}
