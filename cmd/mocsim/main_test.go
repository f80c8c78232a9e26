package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRunVerifiesEveryProtocol runs a small workload under each
// consistency: msc and mlin through a core.Store, oolock and causal
// driven directly. Each must verify and report its own traffic.
func TestRunVerifiesEveryProtocol(t *testing.T) {
	for _, tc := range []struct {
		consistency, condition, traffic string
	}{
		{"msc", "m-sequential", "broadcast traffic: "},
		{"mlin", "m-linearizable", "broadcast traffic: "},
		{"oolock", "m-linearizable-locking", "oolock traffic: "},
		{"causal", "m-causal", "causal traffic: "},
	} {
		t.Run(tc.consistency, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-consistency", tc.consistency, "-procs", "3", "-objects", "3", "-ops", "3", "-seed", "5"}, &stdout, &stderr)
			out := stdout.String()
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr.String())
			}
			if want := "consistency: " + tc.condition + "; verified: true"; !strings.Contains(out, want) {
				t.Fatalf("missing %q:\n%s", want, out)
			}
			if !regexp.MustCompile(tc.traffic + "[1-9][0-9]* msgs").MatchString(out) {
				t.Fatalf("want a nonzero %q line:\n%s", tc.traffic, out)
			}
		})
	}
}

// TestRunUsageErrors pins flag combinations rejected with exit code 2
// before any protocol starts.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-consistency", "oolock", "-batch", "4"}, "-batch/-batchwindow/-inflight"},
		{[]string{"-consistency", "causal", "-shards", "2"}, "-shards applies"},
		{[]string{"-consistency", "msc", "-level", "quorum"}, "-level quorum needs -consistency mlin"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr lacks %q:\n%s", tc.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout:\n%s", stdout.String())
			}
		})
	}
}
