package rapl

import (
	"math"
	"sync"

	"pupil/internal/machine"
)

// The margin and limits of the rung table. retune's solve computes want
// with pow and the table computes its boundaries with the same pow, which
// is accurate to a few ulps with or without FMA; carried into ratio space
// those errors grow by at most a factor alpha, so up to maxTableAlpha they
// stay below 1e-13, four orders of magnitude inside tableEps. maxTables
// bounds the shared cache: a ladder beyond it still gets a table, unshared.
const (
	tableEps      = 1e-9
	maxTableAlpha = 100
	maxTables     = 16
)

// band brackets one decision boundary of retune in ratio space (target
// over estimate): a ratio at or above hi is certainly past the boundary,
// one at or below lo certainly short of it, and one in between is left to
// the reference computation.
type band struct{ lo, hi float64 }

func bandAt(b float64) band { return band{b * (1 - tableEps), b * (1 + tableEps)} }

// rungTable decides retune's step from a full-duty rung without pow. From
// rung i at full duty the reference computes want = F_i·ratio^(1/alpha),
// settles on the highest rung j with F_j <= want, which holds exactly when
// ratio >= (F_j/F_i)^alpha, and, when it stayed on i with want above
// F_i·1.02, tries rung i+1 and keeps it if est·(F_{i+1}/F_i)^alpha fits
// the target. Each threshold is fixed per (i, j), so the table holds them
// and decides every ratio clear of the ones it needs exactly as the
// reference does. A table is immutable once built and shared by every
// firmware with the same ladder and alpha.
type rungTable struct {
	freqs []float64 // FreqAt(0..n-1): with alpha, the key it is shared under
	alpha float64

	// Empty when the ladder or alpha is one the margin argument does not
	// cover; step then declines every ratio.
	rungs []band    // rungs[i*n+j]: where want reaches rung j from rung i
	climb []band    // climb[i]: where want passes fl(F_i·1.02)
	gain  []float64 // gain[i] = pow(F_{i+1}/F_i, alpha), the climb's power factor
}

// rungTables shares one table per (ladder, alpha). Firmwares look a table
// up once, at their first full-duty retune, and keep the pointer, so the
// sub-interval path takes no lock.
var rungTables struct {
	sync.Mutex
	all []*rungTable
}

// tableFor returns the shared rung table for p's ladder and alpha,
// building it on first use.
func tableFor(p *machine.Platform, alpha float64) *rungTable {
	rungTables.Lock()
	defer rungTables.Unlock()
	for _, t := range rungTables.all {
		if t.alpha == alpha && t.sameLadder(p) {
			return t
		}
	}
	t := newRungTable(p, alpha)
	if len(rungTables.all) < maxTables {
		rungTables.all = append(rungTables.all, t)
	}
	return t
}

func (t *rungTable) sameLadder(p *machine.Platform) bool {
	if p.NumFreqSettings() != len(t.freqs) {
		return false
	}
	for j, f := range t.freqs {
		if p.FreqAt(j) != f {
			return false
		}
	}
	return true
}

// newRungTable computes the boundaries with the pow the reference uses.
// It leaves the table empty unless the ladder is positive, finite and
// strictly increasing, alpha is within (0, maxTableAlpha], and every row's
// bands are disjoint and increasing.
func newRungTable(p *machine.Platform, alpha float64) *rungTable {
	n := p.NumFreqSettings()
	t := &rungTable{freqs: make([]float64, n), alpha: alpha}
	for j := range t.freqs {
		t.freqs[j] = p.FreqAt(j)
	}
	if !(alpha > 0 && alpha <= maxTableAlpha) {
		return t
	}
	for j, f := range t.freqs {
		if !(f > 0) || math.IsInf(f, 1) || j > 0 && !(f > t.freqs[j-1]) {
			return t
		}
	}
	rungs, climb, gain := make([]band, n*n), make([]band, n), make([]float64, n)
	for i, fi := range t.freqs {
		row := rungs[i*n : (i+1)*n]
		for j, fj := range t.freqs {
			row[j] = bandAt(pow(fj/fi, alpha))
			if j > 0 && !(row[j-1].hi < row[j].lo) {
				return t
			}
		}
		climb[i] = bandAt(pow(fi*1.02/fi, alpha))
		if i+1 < n {
			gain[i] = pow(t.freqs[i+1]/fi, alpha)
		}
	}
	t.rungs, t.climb, t.gain = rungs, climb, gain
	return t
}

// step returns the rung the reference retune moves to from full-duty rung
// i at the slew-limited ratio of target to est. ok is false, and the
// caller runs the reference, when the ratio is NaN, lands below the lowest
// rung (duty modulation needs the exact want) or sits inside the band of a
// boundary the decision needs.
func (t *rungTable) step(i int, ratio, est, target float64) (j int, ok bool) {
	n := len(t.gain)
	if i >= n || math.IsNaN(ratio) {
		return 0, false
	}
	row := t.rungs[i*n : (i+1)*n]
	// The highest rung whose boundary the ratio clears from above; the
	// firmware mostly dithers between neighbours, so start from i.
	j = i
	for j+1 < n && ratio >= row[j+1].hi {
		j++
	}
	for j >= 0 && ratio < row[j].hi {
		j--
	}
	if j < 0 || j+1 < n && ratio > row[j+1].lo {
		return 0, false
	}
	// At the top rung the climb cannot move, whatever it predicts.
	if j != i || j+1 == n {
		return j, true
	}
	switch c := t.climb[i]; {
	case ratio >= c.hi:
		if est*t.gain[i] <= target {
			return i + 1, true
		}
		return i, true
	case ratio <= c.lo:
		return i, true
	}
	return 0, false
}
