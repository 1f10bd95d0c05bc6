package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"persistbarriers/internal/pmkv"
)

// asMain is the environment variable under which the test binary runs
// main() instead of its tests, so a test can re-execute it as pmkvd.
const asMain = "PMKVD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsRefused: a flag value pmkvd cannot serve with exits 2 with
// a "-flag must" message before anything listens. A negative
// -conn-timeout would otherwise run with no idle timeout unannounced.
// The listen address has no valid port, so a pmkvd that got past its
// flags fails to listen with exit 1 instead.
func TestBadFlagsRefused(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-conn-timeout", "-1s"},
		{"-cores", "0"},
		{"-window", "0"},
		{"-buckets", strconv.Itoa(pmkv.MaxBuckets + 1)},
	} {
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:-1", tc.flag, tc.value)
		cmd.Env = append(os.Environ(), asMain+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: %v, want exit status 2\n%s", tc.flag, tc.value, err, stderr.Bytes())
			continue
		}
		if want := "pmkvd: " + tc.flag + " must "; !strings.HasPrefix(stderr.String(), want) {
			t.Errorf("%s %s: stderr %q, want it to start %q", tc.flag, tc.value, stderr.String(), want)
		}
	}
}
