// Command benchmark is the repository's performance yardstick: five
// closed-loop workloads over the deployed mocd path and the embedded
// replica path, a correctness gate on every run, and a separate traced
// run that says where an operation's microseconds go. README.md explains
// the names; BENCHMARK.json at the repository root carries the bounds.
//
//	go run -C benchmark moc/benchmark                      every workload, timed
//	go run -C benchmark moc/benchmark -trace 1             every workload, traced
//	go run -C benchmark moc/benchmark -smoke               a sanity pass in seconds
//	go run -C benchmark moc/benchmark -workload rpc-msc-mix50 -seed 7 -seconds 10 -trace 0
//	go run -C benchmark moc/benchmark -agree a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 42, "workload plan seed")
		seconds  = flag.Float64("seconds", 10, "length of one timed window")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics, span files, stage budget); 0: the timed run (end-to-end metrics)")
		smoke    = flag.Bool("smoke", false, "one-second windows and a tenth of the warm-up and traced operations, every gate on")
		out      = flag.String("out", "", "output directory (default benchmark/out in the checkout)")
		agree    = flag.Bool("agree", false, "compare two result files: -agree a.json b.json")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	if *agree {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("usage: -agree a.json b.json"))
		}
		return runAgree(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	}
	specs := workloads
	if *workload != "all" {
		sp, ok := findWorkload(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = []spec{sp}
	}

	start := time.Now()
	e := &env{root: root, outDir: *out}
	if e.outDir == "" {
		e.outDir = filepath.Join(root, "benchmark", "out")
	}
	// Whatever the main goroutine is doing, an interrupt must not leave
	// daemons behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllChildren()
		os.Exit(130)
	}()
	if e.bins, err = buildBinaries(root, filepath.Join(root, ".bench_build", "bin")); err != nil {
		return fail(err)
	}

	mo := measureOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
	file := resultFile{Provenance: gatherProvenance(root, *seed, *seconds, *smoke, e.bins.buildS, start)}
	for _, sp := range specs {
		r, err := measure(e, sp, mo)
		if err != nil {
			killAllChildren()
			return fail(fmt.Errorf("%s: %w", sp.name, err))
		}
		printResult(os.Stdout, r)
		file.Results = append(file.Results, r)
	}
	if err := writeJSON(filepath.Join(e.outDir, "result.json"), file); err != nil {
		return fail(err)
	}
	if len(specs) == 1 {
		fmt.Println(contractLine(file.Results[0]))
		return 0
	}
	allCorrect := true
	for _, r := range file.Results {
		allCorrect = allCorrect && r.Correct
	}
	fmt.Printf(`{"workloads": %d, "correct": %v, "result_file": %q, "claim": null}`+"\n",
		len(file.Results), allCorrect, filepath.Join(e.outDir, "result.json"))
	if !allCorrect {
		return 1
	}
	return 0
}
