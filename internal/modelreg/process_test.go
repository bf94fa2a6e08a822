package modelreg_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
)

// extractChildEnv carries "GOMAXPROCS,sweepWorkers,fitWorkers,outFile"
// to the child process of TestExtractDeterministicAcrossProcesses.
const extractChildEnv = "MODELREG_EXTRACT_CHILD"

// TestExtractDeterministicAcrossProcesses re-runs this test binary as two
// child processes that extract the LULESH benchmark design under
// different schedules — GOMAXPROCS 1 with one sweep and one fitting
// worker, GOMAXPROCS 4 with three sweep and four fitting workers — and
// requires byte-identical ModelSet JSON. It pins that neither the
// per-spec structures shared by concurrent runs nor the per-call fitting
// state lets scheduling or map iteration order reach the artifact.
func TestExtractDeterministicAcrossProcesses(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var outs [][]byte
	for i, run := range [][3]int{{1, 1, 1}, {4, 3, 4}} {
		out := filepath.Join(t.TempDir(), fmt.Sprintf("modelset-%d.json", i))
		cmd := exec.Command(exe, "-test.run=^TestExtractDeterminismChild$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("GOMAXPROCS=%d", run[0]),
			fmt.Sprintf("%s=%d,%d,%d,%s", extractChildEnv, run[0], run[1], run[2], out))
		if log, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child %v: %v\n%s", run, err, log)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("child %v wrote no model set: %v", run, err)
		}
		outs = append(outs, raw)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("model set bytes differ across processes:\n--- GOMAXPROCS=1 ---\n%s\n--- GOMAXPROCS=4 ---\n%s", outs[0], outs[1])
	}
}

// TestExtractDeterminismChild is the child process of
// TestExtractDeterministicAcrossProcesses; it skips unless launched by it.
func TestExtractDeterminismChild(t *testing.T) {
	arg := os.Getenv(extractChildEnv)
	if arg == "" {
		t.Skip("child process of TestExtractDeterministicAcrossProcesses")
	}
	var procs, sweepWorkers, fitWorkers int
	var out string
	if _, err := fmt.Sscanf(arg, "%d,%d,%d,%s", &procs, &sweepWorkers, &fitWorkers, &out); err != nil {
		t.Fatalf("bad %s %q: %v", extractChildEnv, arg, err)
	}
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Fatalf("GOMAXPROCS = %d, want %d", got, procs)
	}
	prep, err := core.Prepare(apps.LULESH())
	if err != nil {
		t.Fatal(err)
	}
	sweep := modelreg.LocalSweep(&runner.Runner{Workers: sweepWorkers}, prep)
	ms, err := modelreg.ExtractWith(context.Background(), sweep, fitWorkers, prep, luleshBenchConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
