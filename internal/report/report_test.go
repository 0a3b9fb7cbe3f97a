package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "BB")
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	out := tb.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5 (title, header, separator, 2 rows): %q", len(lines), out)
	}
	// Header and separator align with the widest cell.
	if !strings.Contains(lines[2], "------") {
		t.Errorf("separator missing: %q", lines[2])
	}
	if !strings.HasPrefix(lines[4], "longer") {
		t.Errorf("row misrendered: %q", lines[4])
	}
}

func TestTablePadsShortRows(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("short row not padded: %v", tb.Rows[0])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", "A", "B")
	tb.AddRow("1", "2")
	want := "A,B\n1,2\n"
	if got := tb.CSV(); got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestF(t *testing.T) {
	if got := F(1.23456, 2); got != "1.23" {
		t.Errorf("F = %q", got)
	}
	if got := F(math.NaN(), 2); got != "-" {
		t.Errorf("F(NaN) = %q, want dash", got)
	}
	if got := F(math.Inf(1), 2); got != "-" {
		t.Errorf("F(Inf) = %q, want dash", got)
	}
}
