package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one measured number. N is the sample count behind it and
// Spread the disagreement between the window's segments, where the
// metric has segments.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Spread float64 `json:"segment_spread,omitempty"`
	// Segments are the per-segment values Value is the median of.
	Segments []float64 `json:"segments,omitempty"`
}

// stage is one line of a traced run's latency budget.
type stage struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us"`
	Share  float64 `json:"share"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	// Budget is the serial traced run's per-stage self time; the stages
	// sum to BudgetClientUs.
	Budget         []stage  `json:"stage_budget,omitempty"`
	BudgetClientUs float64  `json:"stage_budget_client_us,omitempty"`
	SpanFile       string   `json:"span_file,omitempty"`
	Notes          []string `json:"notes,omitempty"`
}

func (r *result) metricValue(name string) (metric, bool) {
	for _, set := range [][]metric{r.EndToEnd, r.PerLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// provenance says what was measured, where and when, so two result files
// can be compared by a tool.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	BuildS     float64 `json:"build_s"`
	Start      string  `json:"start"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Provenance provenance `json:"provenance"`
	Results    []*result  `json:"results"`
	// Claim is always null: the benchmark defines names, it claims no gain.
	Claim *string `json:"claim"`
}

func gatherProvenance(root string, seed int64, seconds float64, smoke bool, buildS float64, start time.Time) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Smoke: smoke, BuildS: buildS,
		Start: start.UTC().Format(time.RFC3339),
	}
	git := func(args ...string) (string, bool) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err == nil
	}
	// A checkout that is not a git repository keeps commit "unknown".
	if rev, ok := git("rev-parse", "HEAD"); ok {
		p.Commit = rev
		if st, ok := git("status", "--porcelain"); ok {
			p.Dirty = st != ""
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(data))
	}
	return p
}

// printResult writes every metric as "workload metric value unit n=N".
func printResult(w io.Writer, r *result) {
	for _, set := range [][]metric{r.EndToEnd, r.PerLayer} {
		for _, m := range set {
			line := fmt.Sprintf("%s %s %.4f %s n=%d", r.Workload, m.Name, m.Value, m.Unit, m.N)
			if m.Spread > 0 {
				line += fmt.Sprintf(" segment_spread=%.3f", m.Spread)
			}
			fmt.Fprintln(w, line)
		}
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "%s stage budget of the serial traced run (client span %.2f us):\n", r.Workload, r.BudgetClientUs)
		for _, s := range r.Budget {
			fmt.Fprintf(w, "%s   %-22s %9.2f us  %5.1f%%\n", r.Workload, s.Layer, s.SelfUs, 100*s.Share)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s note: %s\n", r.Workload, n)
	}
	fmt.Fprintf(w, "%s correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// contractLine is the last line of a single-workload run: the object the
// driver reads.
func contractLine(r *result) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	set := r.EndToEnd
	if r.Traced {
		set = r.PerLayer
	}
	metrics := make(map[string]val, len(set))
	for _, m := range set {
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(blob)
}
