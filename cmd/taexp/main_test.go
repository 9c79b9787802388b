package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when re-executed by runTaexp.
func TestMain(m *testing.M) {
	if os.Getenv("TAEXP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTaexp runs taexp with args in a child process and returns its stdout,
// stderr and exit code.
func runTaexp(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TAEXP_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestBadAmbientFailsBeforeFirstExperiment: an ambient taexp cannot use
// ends the run before the first experiment prints anything, wherever the
// experiment that reads it stands in the list.
func TestBadAmbientFailsBeforeFirstExperiment(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string
	}{
		{[]string{"-energy-ambients", "25,400", "fig6", "energysweep"}, "ambient 400°C outside"},
		{[]string{"-energy-ambients", "25,hot", "fig6", "energysweep"}, "invalid syntax"},
		{[]string{"-energy-ambients", "0:1000:1", "fig6", "energysweep"}, "more than 256 points"},
		{[]string{"-thermal-ambient", "-80", "fig6", "thermalcompare"}, "ambient -80°C outside"},
		{[]string{"-thermal-ambient", "NaN", "table1"}, "ambient NaN°C outside"},
	} {
		args := append([]string{"-scale", "0.0078125", "-bench", "sha"}, tc.args...)
		stdout, stderr, code := runTaexp(t, args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.err) {
			t.Errorf("taexp %s: exit %d, stdout %q, stderr %q; want exit 1, no stdout, an error containing %q",
				strings.Join(args, " "), code, stdout, stderr, tc.err)
		}
	}
}
