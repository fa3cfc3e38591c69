package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the real CLI: when
// re-executed with FTQC_CLI_EXEC=1 it runs main() on its arguments, so
// the exit-code tests below observe the genuine os.Exit behaviour
// without building the command separately.
func TestMain(m *testing.M) {
	if os.Getenv("FTQC_CLI_EXEC") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as the ftqc command and returns
// its exit code plus both output streams.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FTQC_CLI_EXEC=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

func TestCLIExitCodes(t *testing.T) {
	t.Run("no arguments", func(t *testing.T) {
		code, _, stderr := runCLI(t)
		if code != 2 {
			t.Fatalf("bare invocation: exit %d, want 2", code)
		}
		if !strings.Contains(stderr, "usage:") {
			t.Fatalf("bare invocation should print usage to stderr, got %q", stderr)
		}
	})
	t.Run("help", func(t *testing.T) {
		code, stdout, _ := runCLI(t, "help")
		if code != 0 {
			t.Fatalf("help: exit %d, want 0", code)
		}
		if !strings.Contains(stdout, "usage:") || !strings.Contains(stdout, "codes") {
			t.Fatalf("help should list the subcommands on stdout, got %q", stdout)
		}
	})
	t.Run("unknown subcommand", func(t *testing.T) {
		code, _, stderr := runCLI(t, "no-such-experiment")
		if code != 2 {
			t.Fatalf("unknown subcommand: exit %d, want 2", code)
		}
		if !strings.Contains(stderr, "no-such-experiment") {
			t.Fatalf("unknown subcommand should be named on stderr, got %q", stderr)
		}
	})
	t.Run("bad flag value", func(t *testing.T) {
		code, _, _ := runCLI(t, "codes", "-samples", "not-a-number")
		if code != 2 {
			t.Fatalf("bad flag value: exit %d, want 2", code)
		}
	})
	for _, args := range [][]string{
		{"-L", "4", "-p", "0.01", "-pe", "2", "-samples", "64"},
		{"-L", "4", "-p", "0.01", "-pe", "-0.5", "-qe", "0.1", "-samples", "64"},
	} {
		t.Run("erasure rate "+args[5], func(t *testing.T) {
			code, _, stderr := runCLI(t, append([]string{"spacetime"}, args...)...)
			if code != 2 {
				t.Fatalf("spacetime -pe %s: exit %d, want 2", args[5], code)
			}
			if !strings.Contains(stderr, "-pe") {
				t.Fatalf("the rejection should name -pe, got %q", stderr)
			}
		})
	}
	// A sample count below one is refused before anything runs, not
	// printed as a NaN or negative-zero rate.
	for _, args := range [][]string{
		{"stream", "-L", "4", "-T", "8", "-p", "0.01", "-samples", "0"},
		{"stream", "-L", "4", "-T", "8", "-p", "0.01", "-samples", "-5"},
		{"spacetime", "-L", "4", "-p", "0.01", "-samples", "0"},
		{"circuit", "-L", "4", "-p", "0.004", "-samples", "0"},
		{"codes", "-samples", "-1"},
	} {
		t.Run(args[0]+" samples "+args[len(args)-1], func(t *testing.T) {
			code, stdout, stderr := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("%v: exit %d, want 2 (stdout %q)", args, code, stdout)
			}
			if !strings.Contains(stderr, "-samples") {
				t.Fatalf("the rejection should name -samples, got %q", stderr)
			}
		})
	}
	t.Run("invalid distances", func(t *testing.T) {
		code, _, stderr := runCLI(t, "codes", "-d1", "4", "-d2", "6")
		if code != 2 {
			t.Fatalf("even distances: exit %d, want 2", code)
		}
		if !strings.Contains(stderr, "odd") {
			t.Fatalf("even distances should explain the odd-distance rule, got %q", stderr)
		}
	})
}
