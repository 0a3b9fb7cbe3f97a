package main

import (
	"context"
	"strings"
	"testing"

	"pupil/internal/experiment"
)

func TestParseOnlyAcceptsKnownNames(t *testing.T) {
	sel, err := parseOnly("table3, FIG4,eas")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table3", "fig4", "eas"} {
		if !sel[name] {
			t.Errorf("selection missing %q: %v", name, sel)
		}
	}
	if len(sel) != 3 {
		t.Errorf("selection has extras: %v", sel)
	}
}

func TestParseOnlyEmptyMeansEverything(t *testing.T) {
	sel, err := parseOnly("")
	if err != nil || len(sel) != 0 {
		t.Fatalf("parseOnly(\"\") = %v, %v; want empty selection, nil", sel, err)
	}
}

func TestParseOnlyRejectsTypos(t *testing.T) {
	_, err := parseOnly("table3,tabel4")
	if err == nil {
		t.Fatal("typo accepted silently")
	}
	if !strings.Contains(err.Error(), "tabel4") {
		t.Errorf("error %q does not name the offending selector", err)
	}
	if !strings.Contains(err.Error(), "table4") {
		t.Errorf("error %q does not list valid names", err)
	}
}

// TestExperimentNamesUnique: a repeated name would make one -only selector
// run two experiments.
func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range names() {
		if seen[name] {
			t.Errorf("experiment %q registered twice", name)
		}
		seen[name] = true
	}
}

// TestExperimentFilesUnique: two outputs sharing a File would silently
// overwrite one CSV artifact with another.
func TestExperimentFilesUnique(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment's quick grid")
	}
	writer := map[string]string{}
	for _, e := range experiment.Experiments() {
		outs, err := e.Run(context.Background(), experiment.Config{Seed: 42, Quick: true}, experiment.RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, o := range outs {
			if prev, ok := writer[o.File]; ok {
				t.Errorf("%s and %s both write %s.csv", prev, e.Name, o.File)
			}
			writer[o.File] = e.Name
		}
	}
}
