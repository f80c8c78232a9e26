package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"moc/internal/core"
	"moc/internal/workload"
)

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 21 {
		t.Fatalf("experiment count = %d, want 21", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E18", "E19", "E20", "A1", "A2"} {
		if !seen[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestRunJSONReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs measurement experiments; skipped in -short")
	}
	if got := jsonIDs(); len(got) != 8 || got[0] != "E13" || got[1] != "E14" || got[2] != "E15" || got[3] != "E16" || got[4] != "E18" || got[5] != "E19" || got[6] != "E20" || got[7] != "E7" {
		t.Fatalf("jsonIDs() = %v, want [E13 E14 E15 E16 E18 E19 E20 E7]", got)
	}
	for _, id := range jsonIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := RunJSON(id, true)
			if err != nil {
				t.Fatalf("RunJSON(%s): %v", id, err)
			}
			if rep.Experiment != id || rep.Title == "" || !rep.Quick {
				t.Fatalf("report header not filled: %+v", rep)
			}
			if len(rep.Series) == 0 || len(rep.Series[0].Points) == 0 {
				t.Fatalf("report has no data: %+v", rep)
			}
			if len(rep.Parameters) == 0 {
				t.Fatalf("report has no parameters: %+v", rep)
			}
		})
	}
}

func TestRunJSONUnsupported(t *testing.T) {
	if _, err := RunJSON("E1", true); err == nil {
		t.Fatal("E1 has no JSON report but RunJSON accepted it")
	}
	if _, err := RunJSON("E99", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("E99", &buf, true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestEveryExperimentRunsQuick executes every experiment in quick mode and
// sanity-checks the output. This doubles as an end-to-end test of the
// whole repository: model, checkers, protocols, workloads.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow-ish; skipped in -short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s failed: %v\noutput:\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestE1OutputMentionsRelations(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("E1", &buf, true); err != nil {
		t.Fatalf("E1: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"alpha", "reads-from", "object order", "m-linearizable: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("E1 reports a relation mismatch:\n%s", out)
	}
}

func TestE2OutputShowsRepair(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("E2", &buf, true); err != nil {
		t.Fatalf("E2: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"legal=false", "~rw~>", "admissible=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("E2 output missing %q:\n%s", want, out)
		}
	}
}

func TestE3ShowsGrowth(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("E3", &buf, true); err != nil {
		t.Fatalf("E3: %v", err)
	}
	if !strings.Contains(buf.String(), "not admissible") {
		t.Errorf("E3 output missing verdicts:\n%s", buf.String())
	}
}

func TestRunMixShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// The E7 headline claim: with a visible network delay, m-SC queries
	// are much faster than m-lin queries (which pay a round trip), while
	// update latency is comparable.
	mix := workload.Mix{ReadFrac: 0.5, Span: 2, OpsPerProc: 12}
	const delay = 2 * time.Millisecond
	msc, err := RunMix(core.MSequential, 3, 4, mix, delay, 1)
	if err != nil {
		t.Fatalf("RunMix msc: %v", err)
	}
	lin, err := RunMix(core.MLinearizable, 3, 4, mix, delay, 1)
	if err != nil {
		t.Fatalf("RunMix mlin: %v", err)
	}
	if msc.QueryMsgs != 0 {
		t.Errorf("m-SC queries sent %d messages, want 0", msc.QueryMsgs)
	}
	if lin.QueryMsgs == 0 {
		t.Error("m-lin queries sent no messages")
	}
	if lin.QueryMean < delay {
		t.Errorf("m-lin query mean %v below one-way delay %v", lin.QueryMean, delay)
	}
	if msc.QueryMean*4 > lin.QueryMean {
		t.Errorf("query latency separation too small: msc=%v mlin=%v", msc.QueryMean, lin.QueryMean)
	}
	if msc.UpdateMean < delay || lin.UpdateMean < delay {
		t.Errorf("update latencies below one-way delay: msc=%v mlin=%v", msc.UpdateMean, lin.UpdateMean)
	}
}
