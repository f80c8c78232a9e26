// Command mocbench regenerates the experiments of the reproduction
// (DESIGN.md, E1–E18 plus ablations A1–A2): the figures of Mittal &
// Garg (1998) as traces, the complexity separations as tables, and the
// protocol cost model as measurements.
//
// Usage:
//
//	mocbench [-quick] [-run E3]        # one experiment
//	mocbench [-quick]                  # all experiments
//	mocbench -list                     # list experiment IDs
//	mocbench -json [-run E14] [-quick] # write BENCH_<id>.json reports
//
// With -json, the measurement experiments (those with machine-readable
// reports: E7, E13–E16, E18–E20) are re-run and each report is written to
// BENCH_<id>.json in the current directory. Combining -json with -run
// restricts the set to one experiment; asking for one without JSON
// support is an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"moc/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mocbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id       = flag.String("run", "", "experiment ID to run (empty = all)")
		quick    = flag.Bool("quick", false, "reduced sizes for a fast pass")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonFlag = flag.Bool("json", false, "write BENCH_<id>.json reports instead of text tables")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *jsonFlag {
		return writeReports(*id, *quick)
	}
	if *id != "" {
		return bench.Run(*id, os.Stdout, *quick)
	}
	return bench.RunAll(os.Stdout, *quick)
}

// writeReports writes BENCH_<id>.json for the selected experiment, or
// for every experiment with JSON support when id is empty.
func writeReports(id string, quick bool) error {
	var ids []string
	if id != "" {
		ids = []string{id}
	} else {
		for _, e := range bench.Experiments() {
			if e.JSON != nil {
				ids = append(ids, e.ID)
			}
		}
	}
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
		fmt.Println(name)
	}
	return nil
}
