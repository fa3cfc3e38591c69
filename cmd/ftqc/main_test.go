package main

import (
	"bytes"
	"hash/fnv"
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
	// The shared flags are checked by one pass: every bad value below goes
	// through every subcommand whose -h lists its flag, and each must exit
	// 2 before any output with the flag named on stderr — not print a
	// header, a NaN or negative-zero rate, or run with a silent default.
	// The -samples values are those of the per-command rows this table
	// replaced.
	takers := flagTakers(t)
	for _, bad := range []struct{ flag, value string }{
		{"L", "1"}, {"p", "1.5"}, {"T", "0"}, {"q", "2"},
		{"samples", "0"}, {"samples", "-1"}, {"samples", "-5"},
		{"decoder", "greedy"}, {"window", "1"},
	} {
		if len(takers[bad.flag]) == 0 {
			t.Fatalf("no subcommand takes -%s", bad.flag)
		}
		for _, cmd := range takers[bad.flag] {
			t.Run(cmd+" "+bad.flag+" "+bad.value, func(t *testing.T) {
				code, stdout, stderr := runCLI(t, cmd, "-"+bad.flag, bad.value)
				if code != 2 || stdout != "" {
					t.Fatalf("exit %d with stdout %q, want exit 2 before any output", code, stdout)
				}
				if !strings.Contains(stderr, "-"+bad.flag+" ") || strings.Contains(stderr, "panic:") {
					t.Fatalf("stderr %q should name -%s without a panic", stderr, bad.flag)
				}
			})
		}
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
	// A value the subcommand cannot run with is refused before anything
	// is printed, with the flag (or the accepted values) named on stderr
	// — not a table header followed by a panic, which also exits 2, nor a
	// NaN row and exit 0.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"thermal", "-L", "1", "-samples", "64"}, "-L"},
		{[]string{"thermal", "-L", "0", "-samples", "64"}, "-L"},
		{[]string{"interferometer", "-eta", "1.5"}, "-eta"},
		{[]string{"concat", "-A", "0"}, "-A"},
		{[]string{"toric", "-decoder", "greedy", "-samples", "64"}, "exact or uf"},
		{[]string{"circuit", "-L", "3", "-p", "0.004", "-leak", "-0.5", "-samples", "64"}, "-leak"},
		{[]string{"circuit", "-L", "3", "-p", "0.004", "-bias", "-1", "-samples", "64"}, "-bias"},
		{[]string{"circuit", "-L", "3", "-p", "0.004", "-window", "-1", "-samples", "64"}, "-window"},
		{[]string{"circuit", "-L", "3", "-p", "0.004", "-commit", "3", "-samples", "64"}, "-commit"},
		{[]string{"stream", "-L", "3", "-p", "0.01", "-window", "-4", "-samples", "64"}, "-window"},
		{[]string{"serve", "-p", "2", "-T", "4", "-sessions", "1"}, "-p"},
		{[]string{"serve", "-model", "phenom", "-p", "-1", "-T", "4", "-sessions", "1"}, "-p"},
		{[]string{"serve", "-lanes", "0", "-T", "4", "-sessions", "1"}, "-lanes"},
		{[]string{"memory", "-rounds", "0", "-samples", "64"}, "-rounds"},
		{[]string{"leakage", "-rounds", "0", "-samples", "64"}, "-rounds"},
		{[]string{"resources", "-A", "0"}, "-A"},
		{[]string{"resources", "-bits", "0"}, "-bits"},
		{[]string{"shorfamily", "-b", "0"}, "-b"},
		{[]string{"serve", "-queue", "0", "-T", "4", "-sessions", "1"}, "-queue"},
		{[]string{"serve", "-queue", "-1", "-T", "4", "-sessions", "1"}, "-queue"},
		{[]string{"serve", "-workers", "-3", "-T", "4", "-sessions", "1"}, "-workers"},
		{[]string{"sessions", "-sessions", "0"}, "-sessions"},
		{[]string{"sessions", "-sessions", "-1"}, "-sessions"},
		{[]string{"sessions", "-snapshots", "-1"}, "-snapshots"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 2 || stdout != "" {
				t.Fatalf("exit %d with stdout %q, want exit 2 before any output", code, stdout)
			}
			if !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "panic:") {
				t.Fatalf("stderr %q should name %q without a panic", stderr, tc.want)
			}
		})
	}
}

// flagTakers maps each flag name to the subcommands whose -h lists it.
func flagTakers(t *testing.T) map[string][]string {
	t.Helper()
	_, help, _ := runCLI(t, "help")
	_, list, _ := strings.Cut(help, "commands:\n")
	takers := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		cmd := strings.Fields(line)[0]
		code, _, usage := runCLI(t, cmd, "-h")
		if code != 0 {
			t.Fatalf("%s -h: exit %d", cmd, code)
		}
		for _, l := range strings.Split(usage, "\n") {
			if name, ok := strings.CutPrefix(l, "  -"); ok {
				name = strings.Fields(name)[0]
				takers[name] = append(takers[name], cmd)
			}
		}
	}
	return takers
}

// TestGoldenCLI pins the stdout of the seeded Monte Carlo subcommands:
// each row is one invocation at a fixed -seed and a small -samples, and
// its FNV-64a digest of stdout was recorded once. A change that moves a
// digest has changed a printed failure count — fix the change, never
// re-record the constant. codes prints its decode speed on stderr, so
// its stdout is pinned too; serve is left out because its session ids
// follow the order in which goroutines Open, and sessions because its
// snapshots depend on timing.
func TestGoldenCLI(t *testing.T) {
	for _, tc := range []struct {
		args string
		want uint64
	}{
		{"toric -L 3,5 -samples 256 -seed 7", 0x170344383f9a0470},
		{"toric -decoder exact -L 3,5 -samples 256 -seed 7", 0xc91c3bdde5044d5e},
		{"thermal -L 3 -samples 512 -seed 7", 0x2316cc6a77910939},
		{"thermal -decoder uf -L 3 -samples 512 -seed 7", 0x0b3f8c1bb1894952},
		{"spacetime -L 3,4 -p 0.01,0.03 -samples 128 -seed 7", 0x67752bc67adb0a24},
		{"spacetime -L 3 -p 0.01,0.03 -decoder exact -samples 128 -seed 7", 0x5a1c220fd804c317},
		{"spacetime -L 3,4 -p 0.01,0.02 -pe 0.02 -qe 0.02 -samples 128 -seed 7", 0x781b998a5e63b94b},
		{"stream -L 3,4 -p 0.01,0.02 -samples 128 -seed 7", 0xb18ca1fd6ebd5634},
		{"circuit -L 3,4 -p 0.004,0.008 -samples 128 -seed 7", 0xda13bdbb937f1135},
		{"circuit -L 3 -p 0.004,0.008 -decoder exact -samples 128 -seed 7", 0xfaf97ca0313ebed0},
		{"circuit -L 3,4 -p 0.004,0.008 -window 4 -samples 128 -seed 7", 0x669201e8411a7036},
		{"circuit -L 3 -p 0.004,0.008 -leak 0.001 -samples 128 -seed 7", 0x4b3debb0e630b6ee},
		{"circuit -L 3 -p 0.004,0.008 -leak 0.001 -blind -samples 128 -seed 7", 0xb92c4d15ebdf869d},
		{"circuit -L 3 -p 0.004,0.008 -correlated -samples 128 -seed 7", 0x1b6d54d319faf62e},
		{"circuit -L 3 -p 0.004,0.008 -schedule hookpar -samples 128 -seed 7", 0xc86c2db675458efd},
		{"circuit -L 3 -p 0.004,0.008 -bias 3 -samples 128 -seed 7", 0x5b8c4f6d3f53a720},
		{"circuit -L 3,4 -p 0.004,0.008 -window 4 -leak 0.001 -samples 128 -seed 7", 0xc6698d510e90ee8d},
		{"circuit -L 3,4 -p 0.004,0.008 -window 4 -correlated -samples 128 -seed 7", 0x685d9eca11e84674},
		{"circuit -L 3,4 -p 0.004,0.008 -window 4 -schedule hookpar -samples 128 -seed 7", 0x47ec808036a39712},
		{"stream -L 3 -window 4 -commit 1 -p 0.01,0.02 -samples 128 -seed 7", 0x2bb41d784e2394f1},
		// One noisy round: the whole-volume runs still decode T = 1.
		{"spacetime -L 3,4 -T 1 -p 0.01,0.03 -pe 0.02 -qe 0.02 -samples 128 -seed 7", 0x351bc6ce73d4d2c2},
		{"circuit -L 3,4 -T 1 -p 0.008,0.016 -leak 0.001 -correlated -samples 256 -seed 7", 0x2fdd6d401d4be439},
		// The paper layer (E01–E20): fixed seeds inside each subcommand.
		{"memory -samples 512", 0xcdf174550a2315ea},
		{"badgood -samples 512", 0xac4abdd26327a6fd},
		{"policy -samples 512", 0x84dfe637afe2676e},
		{"exrec -samples 512", 0xb4eb69c6c4963f14},
		{"thresholds -samples 512", 0xca70c8136e268adc},
		{"concat", 0x0e8e60fee4ba3e3a},
		{"shorfamily", 0x5b18285bdb2695ae},
		{"resources", 0x74e46f4e5798b143},
		{"systematic -samples 200", 0x806ced59aefcc24f},
		{"interferometer", 0xe4e7222a47da1719},
		{"anyon", 0xf175293b88355250},
		{"ancilla -samples 512", 0x46ba964fbb414b34},
		{"leakage -samples 512", 0xbf82e20dbe4acb35},
		{"codes -samples 64 -p 0.005,0.009 -seed 7", 0x8479b3996d15b4bd},
	} {
		t.Run(tc.args, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, strings.Fields(tc.args)...)
			if code != 0 {
				t.Fatalf("exit %d (stderr %q)", code, stderr)
			}
			h := fnv.New64a()
			h.Write([]byte(stdout))
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("stdout digest %#016x, want %#016x; stdout:\n%s", got, tc.want, stdout)
			}
		})
	}
}

// TestLeakageWorkerInvariant: E14's table is a function of (flags,
// seed), so one and four schedulable CPUs print the same bytes.
func TestLeakageWorkerInvariant(t *testing.T) {
	var outs [2]string
	for i, procs := range []string{"1", "4"} {
		t.Setenv("GOMAXPROCS", procs) // the re-executed command inherits it
		code, stdout, stderr := runCLI(t, "leakage", "-samples", "2000")
		if code != 0 {
			t.Fatalf("GOMAXPROCS=%s: exit %d (stderr %q)", procs, code, stderr)
		}
		outs[i] = stdout
	}
	if outs[0] != outs[1] {
		t.Fatalf("GOMAXPROCS=1 and 4 print different tables:\n%s\n---\n%s", outs[0], outs[1])
	}
}
