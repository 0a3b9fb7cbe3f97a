package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"pupil/internal/report"
)

// The committed full-scale reproduction the repro grid is checked against
// at defaultSeed: one Fig. 3 table per cap (normalised performance, "-"
// where the paper has no data) and the Fig. 4 settling times at 140 W
// ("unsettled" where a run never settled).
const (
	fig3Path = "artifacts/fig3_%d.csv"
	fig4Path = "artifacts/fig4.csv"
	fig4Cap  = 140.0
)

// table is a parsed artifact CSV: header names the columns, rows map the
// first column's label to the row.
type table struct {
	header []string
	rows   map[string][]string
}

func readTable(r io.Reader) (*table, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("%d CSV records, want a header and rows", len(recs))
	}
	t := &table{header: recs[0], rows: map[string][]string{}}
	for _, rec := range recs[1:] {
		t.rows[rec[0]] = rec
	}
	return t, nil
}

func readTableFile(path string) (*table, error) {
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := readTable(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// cellRef names one technique cell of the grid.
type cellRef struct {
	app, tech string
}

// mismatch is a cell whose output differs from the artifact.
type mismatch struct {
	cell cellRef
	msg  string
}

// compareFig3 checks normalised performance against one Fig. 3 table
// wherever it prints a number: the value rounded to two decimals must read
// the same. "-" marks a technique the paper has no data for at that cap;
// those cells are skipped. It returns how many cells it compared and the
// ones that differ.
func compareFig3(t *table, apps []string, norm func(cellRef) float64) (checked int, diffs []mismatch) {
	for _, app := range apps {
		row, ok := t.rows[app]
		if !ok {
			diffs = append(diffs, mismatch{cellRef{app: app}, "no artifact row"})
			continue
		}
		for j := 1; j < len(t.header) && j < len(row); j++ {
			if row[j] == "-" {
				continue
			}
			checked++
			c := cellRef{app, t.header[j]}
			if got := report.F(norm(c), 2); got != row[j] {
				diffs = append(diffs, mismatch{c, fmt.Sprintf("normalised %s, artifact %s", got, row[j])})
			}
		}
	}
	return checked, diffs
}

// compareFig4 checks settling times against the Fig. 4 table: a number
// must equal the settling time in whole milliseconds of a run that
// settled, and "unsettled" must be a run that did not.
func compareFig4(t *table, apps []string, settle func(cellRef) (time.Duration, bool)) (checked int, diffs []mismatch) {
	for _, app := range apps {
		row, ok := t.rows[app]
		if !ok {
			diffs = append(diffs, mismatch{cellRef{app: app}, "no artifact row"})
			continue
		}
		for j := 1; j < len(t.header) && j < len(row); j++ {
			checked++
			c := cellRef{app, t.header[j]}
			d, settled := settle(c)
			got := "unsettled"
			if settled {
				got = report.F(float64(d)/float64(time.Millisecond), 0)
			}
			if got != row[j] {
				diffs = append(diffs, mismatch{c, fmt.Sprintf("settling %s, artifact %s", got, row[j])})
			}
		}
	}
	return checked, diffs
}

// checkArtifacts compares the grid's technique cells with the committed
// reproduction. It returns how many artifact entries it compared and marks
// each cell that differs in bad.
func (g *reproGrid) checkArtifacts(out []reproOut, bad []bool, res *outcome) (checked int, err error) {
	type key struct {
		capW float64
		cell cellRef
	}
	index := map[key]int{}
	optimal := map[key]float64{}
	for i, c := range g.cells {
		switch {
		case c.tech == cellOptimal:
			optimal[key{c.capW, cellRef{app: c.app}}] = out[i].rate
		case c.tech >= 0:
			index[key{c.capW, cellRef{c.app, techniques[c.tech]}}] = i
		}
	}
	cell := func(capW float64, c cellRef) (reproOut, bool) {
		i, ok := index[key{capW, c}]
		if !ok {
			return reproOut{}, false
		}
		return out[i], true
	}
	mark := func(capW float64, diffs []mismatch) {
		for _, d := range diffs {
			i, ok := index[key{capW, d.cell}]
			if !ok || !bad[i] {
				res.fail("%.0fW %s/%s: %s", capW, d.cell.tech, d.cell.app, d.msg)
			}
			if ok {
				bad[i] = true
			}
		}
	}
	apps := g.cfg.Apps()
	for i, capW := range g.cfg.Caps() {
		t, err := readTableFile(fmt.Sprintf(fig3Path, i))
		if err != nil {
			return checked, err
		}
		n, diffs := compareFig3(t, apps, func(c cellRef) float64 {
			o, ok := cell(capW, c)
			opt := optimal[key{capW, cellRef{app: c.app}}]
			if !ok || opt <= 0 {
				return math.NaN()
			}
			return o.rate / opt
		})
		checked += n
		mark(capW, diffs)
	}
	t, err := readTableFile(fig4Path)
	if err != nil {
		return checked, err
	}
	n, diffs := compareFig4(t, apps, func(c cellRef) (time.Duration, bool) {
		o, _ := cell(fig4Cap, c)
		return o.settling, o.settled
	})
	mark(fig4Cap, diffs)
	return checked + n, nil
}
