package perf

import (
	"reflect"
	"testing"
)

// TestCompareGates pins each dimension of the regression gate: time/op past
// the threshold, allocs/op past AllocSlack (and any allocation against an
// allocation-free baseline), and bytes/op past BytesSlack plus
// BytesSlackFloor.
func TestCompareGates(t *testing.T) {
	base := NewReport([]Metric{
		{Name: "Tick", NsPerOp: 1000, AllocsPerOp: 0, BytesPerOp: 0},
		{Name: "Epoch", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 4000},
	})
	cases := []struct {
		name string
		cur  []Metric
		want []string // "name dimension", in name order
	}{
		{"equal", base.Metrics, nil},
		{"inside every slack", []Metric{
			{Name: "Tick", NsPerOp: 1100, AllocsPerOp: 0, BytesPerOp: 1024},
			{Name: "Epoch", NsPerOp: 1100, AllocsPerOp: 11, BytesPerOp: 4000*1.25 + 1024},
		}, nil},
		{"slower", []Metric{
			{Name: "Tick", NsPerOp: 1101},
			{Name: "Epoch", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 4000},
		}, []string{"Tick time/op"}},
		{"allocating", []Metric{
			{Name: "Tick", NsPerOp: 1000, AllocsPerOp: 1, BytesPerOp: 16},
			{Name: "Epoch", NsPerOp: 1000, AllocsPerOp: 12, BytesPerOp: 4000},
		}, []string{"Epoch allocs/op", "Tick allocs/op"}},
		{"growing bytes", []Metric{
			{Name: "Tick", NsPerOp: 1000, BytesPerOp: 1025},
			{Name: "Epoch", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 4000*1.25 + 1025},
		}, []string{"Epoch B/op", "Tick B/op"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, r := range Compare(base, NewReport(tc.cur), 0.10) {
				got = append(got, r.Name+" "+r.Dimension)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("regressions %q, want %q", got, tc.want)
			}
		})
	}
}

// TestCompareIgnoresOneSided keeps adding or retiring a benchmark from
// failing the gate.
func TestCompareIgnoresOneSided(t *testing.T) {
	base := NewReport([]Metric{{Name: "Old", NsPerOp: 1, BytesPerOp: 1}})
	cur := NewReport([]Metric{{Name: "New", NsPerOp: 1e9, AllocsPerOp: 1e6, BytesPerOp: 1e9}})
	if regs := Compare(base, cur, 0.10); len(regs) != 0 {
		t.Errorf("one-sided benchmarks gated: %v", regs)
	}
}
