// Package bench is the experiment harness: one runner per experiment of
// DESIGN.md's per-experiment index (E1–E10), each regenerating a figure
// or claim of Mittal & Garg (1998) as a printed table or trace. The
// runners are shared by cmd/mocbench and the root bench_test.go.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the experiment identifier (e.g. "E3").
	ID string
	// Title summarizes what is reproduced.
	Title string
	// Run executes the experiment, writing its table/trace to w. When
	// quick is true, sizes are reduced (used by unit tests and -short).
	Run func(w io.Writer, quick bool) error
	// JSON, when non-nil, runs the experiment's measurement and returns
	// a machine-readable report (mocbench -json). Experiment/Title/Quick
	// are filled in by RunJSON.
	JSON func(quick bool) (Report, error)
}

// Experiments returns all experiments in ID order.
func Experiments() []Experiment {
	exps := []Experiment{
		{ID: "E1", Title: "Figure 1: example history and its relations", Run: runE1},
		{ID: "E2", Title: "Figures 2-3: WW-constraint, nonlegal extension, ~rw repair", Run: runE2},
		{ID: "E3", Title: "Theorems 1-2: exact checking is exponential; Theorem 7 and Misra are polynomial", Run: runE3},
		{ID: "E4", Title: "Theorem 7: admissible iff legal under the WW-constraint (randomized)", Run: runE4},
		{ID: "E5", Title: "Figures 4-5: m-sequential-consistency protocol executions", Run: runE5},
		{ID: "E6", Title: "Figures 6-7: m-linearizability protocol executions", Run: runE6},
		{ID: "E7", Title: "Protocol cost model: query/update latency and throughput", Run: runE7, JSON: e7JSON},
		{ID: "E8", Title: "Theorem 2: schedule <-> history reduction (randomized)", Run: runE8},
		{ID: "E9", Title: "Section 5.2: relevant-objects-only query payloads", Run: runE9},
		{ID: "E10", Title: "Section 1: multi-object operations vs an aggregate object", Run: runE10},
		{ID: "E11", Title: "Section 4: OO-constraint locking protocol vs the broadcast protocols", Run: runE11},
		{ID: "E12", Title: "Consistency hierarchy: m-lin => m-SC => m-causal, protocol by protocol", Run: runE12},
		{ID: "E13", Title: "Availability under crash-stop failures: bounded queries with 0, 1, f crashed", Run: runE13, JSON: e13JSON},
		{ID: "E14", Title: "Protocol cost model over real loopback TCP (internal/transport)", Run: runE14, JSON: e14JSON},
		{ID: "E15", Title: "Batched, pipelined updates: throughput and latency vs batch size", Run: runE15, JSON: e15JSON},
		{ID: "E16", Title: "Sharded object space: ops/s vs shard count under a fixed per-coordinator egress budget", Run: runE16, JSON: e16JSON},
		{ID: "E18", Title: "Availability under chaos: socket faults, SIGKILL, and checkpoint rejoin over loopback TCP", Run: runE18, JSON: e18JSON},
		{ID: "E19", Title: "Per-request consistency levels: query latency at ONE/QUORUM/ALL with one degraded peer", Run: runE19, JSON: e19JSON},
		{ID: "E20", Title: "Live verification: verified records/s and retained state vs GC window, in-process + streamed TCP", Run: runE20, JSON: e20JSON},
		{ID: "A1", Title: "Ablation: sequencer vs Lamport atomic broadcast", Run: runAblationBroadcast},
		{ID: "A2", Title: "Ablation: checker heuristics and memoization", Run: runAblationChecker},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Run executes the experiment with the given ID.
func Run(id string, w io.Writer, quick bool) error {
	for _, e := range Experiments() {
		if e.ID == id {
			fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
			return e.Run(w, quick)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", id)
}

// RunAll executes every experiment.
func RunAll(w io.Writer, quick bool) error {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
		if err := e.Run(w, quick); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// table is a small helper around tabwriter.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }
