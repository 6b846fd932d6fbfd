package main

// Invalid configurations must not run: paldia-sim validates every
// core.Config it builds and exits non-zero with the reason before any
// simulation starts. The test re-executes its own binary as paldia-sim (the
// environment-variable subprocess pattern), so main's exit paths are
// observed from outside the process.

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// asMainEnv, when set to 1, makes the test binary run main() instead of the
// tests.
const asMainEnv = "PALDIA_SIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs paldia-sim with args in a subprocess and returns its exit code
// and stderr.
func runSim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatalf("running paldia-sim %v: %v", args, err)
		return 0, ""
	}
}

func TestInvalidConfigsExitNonZero(t *testing.T) {
	spotOverflow := []string{"-spot-fraction", "2", "-spot-discount", "0.7", "-revoke-every", "30s", "-revoke-notice", "5s"}
	negativeRevoke := []string{"-revoke-every", "-1s"}
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the validation message
	}{
		{"spot-fraction-above-one", spotOverflow, "SpotFraction"},
		{"negative-revoke-every", negativeRevoke, "RevokeEvery is negative"},
		{"stream/spot-fraction-above-one", append([]string{"-stream"}, spotOverflow...), "SpotFraction"},
		{"stream/negative-revoke-every", append([]string{"-stream"}, negativeRevoke...), "RevokeEvery is negative"},
		{"grid/negative-revoke-every", append([]string{"-tenants", "2"}, negativeRevoke...), "RevokeEvery is negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-duration", "10s"}, tc.args...)
			code, stderr := runSim(t, args...)
			if code == 0 {
				t.Fatalf("paldia-sim %v exited 0, want a non-zero exit", args)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("paldia-sim %v stderr = %q, want it to name %q", args, stderr, tc.want)
			}
		})
	}
}

// TestValidConfigRuns is the control: the same harness runs a short valid
// invocation to completion, so the failures above are the validation's.
func TestValidConfigRuns(t *testing.T) {
	if code, stderr := runSim(t, "-duration", "10s"); code != 0 {
		t.Fatalf("valid paldia-sim run exited %d: %s", code, stderr)
	}
}
