package rapl

import (
	"math"
	"testing"
	"time"

	"pupil/internal/machine"
	"pupil/internal/sim"
)

// dither is a fake two-socket actuator whose power follows the operating
// point, so capped firmwares keep moving between neighbouring rungs the
// way a fleet node's do.
type dither struct {
	plat  *machine.Platform
	rungW []float64 // socket power at full duty on each rung
	idleW float64
	idx   [2]int
	duty  [2]float64
}

func newDither(p *machine.Platform) *dither {
	d := &dither{plat: p, idleW: 18}
	top := p.FreqAt(p.NumFreqSettings() - 1)
	for i := 0; i < p.NumFreqSettings(); i++ {
		d.rungW = append(d.rungW, d.idleW+62*math.Pow(p.FreqAt(i)/top, 2.4))
	}
	for s := range d.idx {
		d.idx[s], d.duty[s] = p.NumFreqSettings()-1, 1
	}
	return d
}

func (d *dither) SocketPower(s int) float64 {
	return d.idleW + (d.rungW[d.idx[s]]-d.idleW)*d.duty[s]
}

func (d *dither) SetOperatingPoint(s int, freqIdx int, duty float64) {
	d.idx[s], d.duty[s] = freqIdx, duty
}

// BenchmarkFirmwareTick times one firmware sub-interval on each socket of
// a capped two-socket node past warm-up. The caps sit between rungs (50 W
// per socket, as a fleet node's 100 W), so every sub-interval retunes.
func BenchmarkFirmwareTick(b *testing.B) {
	p := machine.E52690Server()
	act := newDither(p)
	cfg := DefaultConfig()
	var fws [2]*Firmware
	for s := range fws {
		fws[s] = NewFirmware(p, s, act, cfg, sim.NewRNG(uint64(s)+1))
		fws[s].SetCap(0, 50)
	}
	now := time.Duration(0)
	for now < time.Second {
		now += cfg.SubInterval
		fws[0].Tick(now)
		fws[1].Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += cfg.SubInterval
		fws[0].Tick(now)
		fws[1].Tick(now)
	}
	b.StopTimer()
	if idx, duty := fws[0].OperatingPoint(); duty != 1 || idx == p.NumFreqSettings()-1 {
		b.Fatalf("socket 0 at rung %d duty %v: the caps no longer hold the firmware on a dithering full-duty rung", idx, duty)
	}
}
