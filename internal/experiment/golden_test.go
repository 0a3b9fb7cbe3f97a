package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pupil/internal/report"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/experiment -run Golden -update
//
// Regenerated files must be reviewed and committed; the point of the byte
// comparison is that any drift in experiment output — however small — is a
// deliberate, visible decision, not a silent side effect of a hot-path
// rewrite.
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenCSV renders a table as its title plus CSV body, the committed
// golden format.
func goldenCSV(t *report.Table) string {
	return fmt.Sprintf("# %s\n%s", t.Title, t.CSV())
}

// checkGolden compares got against testdata/golden/<name> byte for byte,
// or rewrites the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the committed golden copy.\n--- want\n%s\n--- got\n%s\nIf the change is intended, regenerate with -update and commit the diff.",
			path, want, got)
	}
}

// runExperiment renders the named registry entry at the quick config.
// Grids are memoized, so alongside the rest of the package's tests this
// costs only the render.
func runExperiment(t *testing.T, name string) []Output {
	t.Helper()
	for _, e := range Experiments() {
		if e.Name == name {
			outs, err := e.Run(context.Background(), quickCfg(), RunOpts{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return outs
		}
	}
	t.Fatalf("no experiment named %q", name)
	return nil
}

// checkExperimentGolden pins each table of the named registry entry byte
// for byte against testdata/golden/<File>_quick.csv.
func checkExperimentGolden(t *testing.T, name string) {
	t.Helper()
	for _, o := range runExperiment(t, name) {
		if o.Table != nil {
			checkGolden(t, o.File+"_quick.csv", goldenCSV(o.Table))
		}
	}
}

// TestExperimentsGolden pins every table of every registered experiment,
// so a new entry is gated as soon as it is listed. The tests after it pin
// single entries by name.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick grid")
	}
	for _, e := range Experiments() {
		checkExperimentGolden(t, e.Name)
	}
	t.Run("digests", func(t *testing.T) {
		skipUnlessPinnedFloats(t)
		checkGolden(t, "digests_quick.txt", gridDigests(t))
	})
}

// gridDigests hashes every memoized quick grid at full precision, one line
// per grid: %v prints a float64 so that it reads back exactly and prints
// maps in key order, so a change to any low bit of any record changes its
// line, where the rounded CSV goldens would not notice.
func gridDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	line := func(name string, d any, err error) {
		if err != nil {
			t.Fatalf("%s grid: %v", name, err)
		}
		fmt.Fprintf(&b, "%s %x\n", name, sha256.Sum256([]byte(fmt.Sprintf("%v", d))))
	}
	ctx, cfg := context.Background(), quickCfg()
	single, err := singleGrid.get(ctx, cfg, RunOpts{})
	line("single", single, err)
	multi, err := multiGrid.get(ctx, cfg, RunOpts{})
	line("multi", multi, err)
	chaos, err := chaosGrid.get(ctx, cfg, RunOpts{})
	line("chaos", chaos, err)
	cluster, err := clusterGrid.get(ctx, cfg, RunOpts{})
	line("cluster", cluster, err)
	hier, err := hierarchyGrid.get(ctx, cfg, RunOpts{})
	line("hierarchy", hier, err)
	chaosCluster, err := chaosClusterGrid.get(ctx, cfg, RunOpts{})
	line("chaoscluster", chaosCluster, err)
	thermal, err := thermalGrid.get(ctx, cfg, RunOpts{})
	line("thermal", thermal, err)
	return b.String()
}

// skipUnlessPinnedFloats skips a bit-exact check on a host whose
// floating-point results may differ from the ones its digests were
// generated on: math.Exp (and so math.Pow) takes an FMA code path on amd64
// CPUs that have FMA, and other architectures may fuse x*y+z.
func skipUnlessPinnedFloats(t *testing.T) {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on linux/amd64 with FMA, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Skip("digests are pinned with FMA enabled; GODEBUG turns it off")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil || !bytes.Contains(info, []byte(" fma ")) {
		t.Skip("digests are pinned on a CPU with FMA; this one lacks it")
	}
}

// TestGoldenTable3 pins the quick-config Table 3 byte for byte.
func TestGoldenTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick single-app sweep")
	}
	checkExperimentGolden(t, "table3")
}

// TestGoldenChaosTables pins the three chaos tables (cap-violation time,
// steady performance, supervision ladder) for the quick config.
func TestGoldenChaosTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick chaos grid")
	}
	checkExperimentGolden(t, "chaos")
}

// TestGoldenThermalTable pins the quick-config thermal comparison — 2
// techniques x 3 cooling environments, duty-cycle throttle vs headroom
// governor — byte for byte: governor columns beat throttle columns
// wherever the junction binds, without exceeding TjMax.
func TestGoldenThermalTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick thermal grid")
	}
	checkExperimentGolden(t, "thermal")
}

// TestGoldenHierarchyTable pins the quick-config flat-vs-tree comparison —
// 2 adaptive policies x 3 budget-domain arrangements over the same 8 nodes
// and budget ramp — byte for byte.
func TestGoldenHierarchyTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick hierarchy grid")
	}
	checkExperimentGolden(t, "hierarchy")
}

// TestGoldenChaosClusterTable pins the quick-config fleet chaos grid — 2
// adaptive policies x 6 fault profiles x naive/quarantine coordinators at
// 8 nodes — byte for byte: the quarantine rows recover the budget the
// naive rows leave stranded.
func TestGoldenChaosClusterTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick fleet chaos grid")
	}
	checkExperimentGolden(t, "chaoscluster")
}

// TestGoldenClusterTable pins the quick-config cluster-policy comparison —
// the 3 policies x 3 cluster sizes grid under the budget ramp — byte for
// byte.
func TestGoldenClusterTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick cluster grid")
	}
	checkExperimentGolden(t, "cluster")
}
