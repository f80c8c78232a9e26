package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runAgree compares two result files metric by metric against the bounds
// in BENCHMARK.json. b disagrees with a where a gated end-to-end metric
// is worse by more than its bound, or where the failure counts differ. A
// metric whose segments disagreed by more than the bound in either run
// is unresolved: the runs cannot tell a change from noise. The exit code
// is 1 when anything disagrees, 2 when the files cannot be compared.
func runAgree(w io.Writer, benchPath, aPath, bPath string) int {
	var bench benchmarkFile
	var a, b resultFile
	for path, v := range map[string]any{benchPath: &bench, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(w, "agree:", err)
			return 2
		}
	}
	byName := make(map[string]*result, len(b.Results))
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	offenders := 0
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%s missing from %s\n", ra.Workload, bPath)
			offenders++
			continue
		}
		if ra.Failed != rb.Failed || ra.Correct != rb.Correct {
			fmt.Fprintf(w, "%s DISAGREE failed %d vs %d, correct %v vs %v\n", ra.Workload, ra.Failed, rb.Failed, ra.Correct, rb.Correct)
			offenders++
		}
		for _, def := range bench.EndToEnd {
			ma, okA := ra.metricValue(def.Name)
			mb, okB := rb.metricValue(def.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "%s %s missing\n", ra.Workload, def.Name)
				offenders++
				continue
			}
			// change > 0 means b is worse than a.
			change := ratio(mb.Value-ma.Value, ma.Value)
			if def.Better == "higher" {
				change = -change
			}
			verdict := "unchanged"
			switch {
			case ma.Spread > def.Bound || mb.Spread > def.Bound:
				verdict = "unresolved"
			case change > def.Bound:
				verdict = "DISAGREE"
				offenders++
			}
			fmt.Fprintf(w, "%s %s %.4f vs %.4f %s worse by %+.1f%% (bound %.0f%%) %s\n",
				ra.Workload, def.Name, ma.Value, mb.Value, ma.Unit, 100*change, 100*def.Bound, verdict)
		}
	}
	if offenders > 0 {
		fmt.Fprintf(w, "agree: %d disagreement(s)\n", offenders)
		return 1
	}
	fmt.Fprintln(w, "agree: the two result sets agree within the bounds")
	return 0
}
