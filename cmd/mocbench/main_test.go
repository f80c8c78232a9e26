package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunList: -list prints one line per experiment, in ID order.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := "A1 A2 E1 E10 E11 E12 E13 E2 E3 E4 E5 E6 E7 E8 E9"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("-list ids = %s, want %s", got, want)
	}
}

// TestRunUsageErrors pins the invocations rejected with exit code 2
// before any experiment runs (so nothing reaches stdout).
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"E3"}, "unexpected argument"},
		{[]string{"-run", "E14"}, "unknown experiment"},
		{[]string{"-run", "E16"}, "unknown experiment"},
		{[]string{"-run", "E19"}, "unknown experiment"},
		{[]string{"-run", "E99"}, "unknown experiment"},
		{[]string{"-json", "-run", "E1"}, "has no JSON report"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr lacks %q:\n%s", tc.want, stderr.String())
			}
		})
	}
}

// TestRunJSONWritesReport: -json -run writes BENCH_<id>.json into the
// current directory, with the report header filled in.
func TestRunJSONWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a measurement experiment; skipped in -short")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-quick", "-run", "E7"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "BENCH_E7.json" {
		t.Fatalf("stdout = %q, want the report file name", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_E7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Quick      bool   `json:"quick"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_E7.json does not parse: %v", err)
	}
	if rep.Experiment != "E7" || !rep.Quick {
		t.Fatalf("report header = %+v, want experiment E7, quick true", rep)
	}
}
