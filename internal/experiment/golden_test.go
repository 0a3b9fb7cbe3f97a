package experiment

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

// checkExperimentGolden renders the named registry entry at the quick
// config and pins each of its tables byte for byte against
// testdata/golden/<File>_quick.csv. Grids are memoized, so alongside the
// rest of the package's tests this costs only the render.
func checkExperimentGolden(t *testing.T, name string) {
	t.Helper()
	for _, e := range Experiments() {
		if e.Name != name {
			continue
		}
		outs, err := e.Run(context.Background(), quickCfg(), RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, o := range outs {
			if o.Table != nil {
				checkGolden(t, o.File+"_quick.csv", goldenCSV(o.Table))
			}
		}
		return
	}
	t.Fatalf("no experiment named %q", name)
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
