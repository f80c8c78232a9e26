package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunUsageErrors pins the invocations rejected with exit code 2
// while parsing flags, before mocd is built (so nothing reaches stdout).
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
		{[]string{"-phasea", "2 seconds"}, "invalid value"},
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
