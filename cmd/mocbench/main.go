// Command mocbench regenerates the experiments of the reproduction
// (DESIGN.md §4: E1–E13 and the ablations A1–A2): the figures
// of Mittal & Garg (1998) as traces, the complexity separations as
// tables, and the protocol cost model as measurements.
//
// Usage:
//
//	mocbench [-quick] [-run E3]       # one experiment
//	mocbench [-quick]                 # all experiments
//	mocbench -list                    # list experiment IDs
//	mocbench -json [-run E7] [-quick] # write BENCH_<id>.json reports
//
// With -json, the measurement experiments (those with machine-readable
// reports: E7 and E13) are re-run and each report is written
// to BENCH_<id>.json in the current directory. Combining -json with
// -run restricts the set to one experiment.
//
// Usage errors — a positional argument, an unknown -run ID, or -json
// -run naming an experiment without a report — exit 2 before any
// experiment runs; a failed run exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"moc/internal/bench"
)

// usageError marks a flag-validation failure, reported with exit code 2
// before any experiment runs.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program with its streams and exit code explicit, so
// tests can drive every exit path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	err := mocbench(args, stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "mocbench:", err)
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

func mocbench(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id       = fs.String("run", "", "experiment ID to run (empty = all)")
		quick    = fs.Bool("quick", false, "reduced sizes for a fast pass")
		list     = fs.Bool("list", false, "list experiments and exit")
		jsonFlag = fs.Bool("json", false, "write BENCH_<id>.json reports instead of text tables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err.Error()}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Sprintf("unexpected argument %q (select an experiment with -run)", fs.Arg(0))}
	}

	exps := bench.Experiments()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var ids, reports []string
	for _, e := range exps {
		ids = append(ids, e.ID)
		if e.JSON != nil {
			reports = append(reports, e.ID)
		}
	}
	if *id != "" {
		if !slices.Contains(ids, *id) {
			return usageError{fmt.Sprintf("unknown experiment %q (see -list)", *id)}
		}
		if *jsonFlag && !slices.Contains(reports, *id) {
			return usageError{fmt.Sprintf("experiment %s has no JSON report (supported: %v)", *id, reports)}
		}
	}

	if *jsonFlag {
		if *id != "" {
			reports = []string{*id}
		}
		return writeReports(reports, *quick, stdout)
	}
	if *id != "" {
		return bench.Run(*id, stdout, *quick)
	}
	return bench.RunAll(stdout, *quick)
}

// writeReports writes BENCH_<id>.json for each of ids and prints each
// file name.
func writeReports(ids []string, quick bool, stdout io.Writer) error {
	for _, id := range ids {
		rep, err := bench.RunJSON(id, quick)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("BENCH_%s.json", id)
		if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, name)
	}
	return nil
}
