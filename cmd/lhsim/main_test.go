package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wallClock matches the only host-dependent fields lhsim prints: the
// wall time and event rate at the end of the simulator: line.
var wallClock = regexp.MustCompile(` in \S+ — \S+M events/sec`)

// maskWall blanks the wall-clock fields so the report can be compared
// byte for byte.
func maskWall(s string) string {
	return wallClock.ReplaceAllString(s, " in WALL — RATEM events/sec")
}

// TestGolden pins lhsim's full report, wall clock masked, for one host of
// each of two stacks and for two cluster runs (transport through a flap,
// and sharded). A golden is regenerated with
//
//	go run ./cmd/lhsim -dur 5ms -warm 1ms <flags> |
//	  sed -E 's/ in [^ ]+ — [^ ]+M events\/sec/ in WALL — RATEM events\/sec/' > cmd/lhsim/testdata/<name>.golden
func TestGolden(t *testing.T) {
	cases := []struct {
		name  string
		flags []string
	}{
		{"lauberhorn", nil},
		{"bypass-zipf", []string{"-stack", "bypass", "-zipf", "1.1", "-services", "8"}},
		{"hosts4-retry-flap", []string{"-hosts", "4", "-transport", "retry", "-flap"}},
		{"hosts16-shards4", []string{"-hosts", "16", "-shards", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-dur", "5ms", "-warm", "1ms"}, tc.flags...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("lhsim %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := maskWall(stdout.String()); got != string(want) {
				t.Errorf("lhsim %s diverged from testdata/%s.golden:\ngot:\n%s\nwant:\n%s",
					strings.Join(args, " "), tc.name, got, want)
			}
		})
	}
}

// TestRunExitCodes pins the exit code and message for flag sets a
// one-host Spec cannot carry, which cluster.Spec.Validate reports, and
// pins that a transport runs on one host.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		flags  []string
		code   int
		stderr string
	}{
		{[]string{"-shards", "2"}, 1,
			"lhsim: cluster: Shards=2 needs a spine-leaf fabric (sharding splits at leaf boundaries)\n"},
		{[]string{"-flap"}, 1,
			"lhsim: cluster: fault 0 needs a Machine target in a Direct topology\n"},
		{[]string{"-size", "-5"}, 1,
			`lhsim: cluster: client "client" Size: workload: FixedSize N -5 must be >= 0` + "\n"},
		{[]string{"-transport", "credit"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.flags, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-dur", "1ms", "-warm", "1ms"}, tc.flags...)
			code := run(args, &stdout, &stderr)
			if code != tc.code || stderr.String() != tc.stderr {
				t.Fatalf("lhsim %s: exit %d, stderr %q; want exit %d, stderr %q",
					strings.Join(args, " "), code, stderr.String(), tc.code, tc.stderr)
			}
			if code == 0 && !strings.Contains(stdout.String(), "transport: Credit") {
				t.Fatalf("lhsim %s printed no transport line:\n%s", strings.Join(args, " "), stdout.String())
			}
		})
	}
}
