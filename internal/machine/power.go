package machine

// SocketLoad summarizes the activity the workload imposes on one socket; it
// is produced by the system evaluator and consumed by the power model.
type SocketLoad struct {
	// BusyCores is the average number of cores with at least one busy
	// hardware thread, in [0, ActiveCores]. Spinning threads count as
	// busy: a core retiring test-and-set loops burns full dynamic power.
	BusyCores float64
	// HTShare is the fraction of busy core-time during which both
	// hardware threads of a core are occupied, in [0, 1]. Only meaningful
	// when the configuration enables hyperthreading.
	HTShare float64
	// StallFrac is the fraction of busy cycles stalled on memory, in
	// [0, 1]. Stalled cycles burn StallPowerFactor of full dynamic power.
	StallFrac float64
	// BWGBs is the memory bandwidth drawn through this socket's
	// controller, used for controller dynamic power.
	BWGBs float64
	// TempC is the socket's junction temperature, feeding the platform's
	// temperature-dependent leakage model when one is configured. Zero
	// means "unmodeled": the power model then behaves exactly as it did
	// before temperature existed.
	TempC float64
}

// SocketPower returns the modeled power of socket s under configuration c
// and load. Sustained power is clamped at the socket TDP (the package
// thermally throttles rather than exceed it).
func (p *Platform) SocketPower(c Config, s int, load SocketLoad) float64 {
	if s >= c.Sockets {
		w := p.SocketParked
		// Using a parked socket's memory controller (interleaved
		// allocation) keeps part of its uncore awake.
		if s < c.MemCtls {
			util := clampF(load.BWGBs/p.BWPerCtlGBs, 0, 1)
			w += p.MemCtlIdle + util*p.MemCtlDyn
		}
		return w
	}
	f := c.EffectiveGHz(p, s)
	busy := clampF(load.BusyCores, 0, float64(c.Cores))
	idle := float64(c.Cores) - busy

	dyn := p.CoreDynPower(f)
	if c.HT {
		// Both-threads-busy cores draw HTPowerFactor of single-thread
		// dynamic power; blend by the share of time HT is exercised.
		dyn *= 1 + (p.HTPowerFactor-1)*clampF(load.HTShare, 0, 1)
	}
	// Memory-stalled cycles burn a fraction of full dynamic power.
	stall := clampF(load.StallFrac, 0, 1)
	dyn *= (1 - stall) + stall*p.StallPowerFactor

	w := p.UncoreActive + busy*dyn + idle*p.CoreIdle

	// Controller power accrues on sockets whose controller is in use.
	// Controllers are brought up in socket order: MemCtls=1 means only
	// socket 0's controller is active.
	if s < c.MemCtls {
		util := clampF(load.BWGBs/p.BWPerCtlGBs, 0, 1)
		w += p.MemCtlIdle + util*p.MemCtlDyn
	}

	// Temperature-dependent leakage: hot silicon draws more static power.
	// Parked sockets are power-gated and draw none, so only this active
	// branch pays it. ExcessW is exactly zero at the calibration
	// temperature, keeping ambient-temperature totals bit-identical.
	if p.Leakage != nil {
		w += p.Leakage.ExcessW(load.TempC)
	}

	if w > p.SocketTDP {
		w = p.SocketTDP
	}
	return w
}

// PowerBreakdown splits one socket's modeled power into RAPL-style zones.
// TotalW always equals SocketPower for the same arguments, bit for bit;
// the components sum to it (scaled proportionally when the TDP clamp
// engages).
type PowerBreakdown struct {
	// TotalW is the socket's power — the package zone.
	TotalW float64
	// CoreW is the core zone: busy-core dynamic power plus idle-core
	// leakage. Zero on a parked socket.
	CoreW float64
	// DramW is the dram zone: the memory controller's static and
	// bandwidth-proportional power, when the controller is in use.
	DramW float64
	// UncoreW is the remainder: the active uncore, or the parked-socket
	// floor.
	UncoreW float64
}

// SocketPowerBreakdown reports socket s's power split into package, core,
// and dram zones. The total is computed by SocketPower itself — the
// arithmetic order the golden files pin — and the component terms mirror
// its construction, rescaled to the clamped total when the socket hits
// its TDP.
func (p *Platform) SocketPowerBreakdown(c Config, s int, load SocketLoad) PowerBreakdown {
	var b PowerBreakdown
	b.TotalW = p.SocketPower(c, s, load)
	if s >= c.Sockets {
		b.UncoreW = p.SocketParked
		if s < c.MemCtls {
			util := clampF(load.BWGBs/p.BWPerCtlGBs, 0, 1)
			b.DramW = p.MemCtlIdle + util*p.MemCtlDyn
		}
	} else {
		f := c.EffectiveGHz(p, s)
		busy := clampF(load.BusyCores, 0, float64(c.Cores))
		idle := float64(c.Cores) - busy
		dyn := p.CoreDynPower(f)
		if c.HT {
			dyn *= 1 + (p.HTPowerFactor-1)*clampF(load.HTShare, 0, 1)
		}
		stall := clampF(load.StallFrac, 0, 1)
		dyn *= (1 - stall) + stall*p.StallPowerFactor
		b.UncoreW = p.UncoreActive
		b.CoreW = busy*dyn + idle*p.CoreIdle
		if s < c.MemCtls {
			util := clampF(load.BWGBs/p.BWPerCtlGBs, 0, 1)
			b.DramW = p.MemCtlIdle + util*p.MemCtlDyn
		}
		// Leakage lives in the core zone: it is transistor static power,
		// mirroring the term SocketPower adds to the total.
		if p.Leakage != nil {
			b.CoreW += p.Leakage.ExcessW(load.TempC)
		}
	}
	// When the TDP clamp lowered the total below the raw component sum,
	// scale the zones so they still account for exactly the clamped power.
	if sum := b.CoreW + b.DramW + b.UncoreW; sum > 0 && b.TotalW < sum {
		scale := b.TotalW / sum
		b.CoreW *= scale
		b.DramW *= scale
		b.UncoreW *= scale
	}
	return b
}

// Power returns total machine power and the per-socket breakdown. loads may
// be shorter than the socket count; missing entries are treated as idle.
func (p *Platform) Power(c Config, loads []SocketLoad) (total float64, perSocket []float64) {
	perSocket = make([]float64, p.Sockets)
	total = p.PowerInto(perSocket, c, loads)
	return total, perSocket
}

// PowerInto is Power with a caller-owned per-socket slice (length must be
// the platform socket count); it returns the total. The evaluator's hot
// path uses it to avoid a per-refresh allocation.
func (p *Platform) PowerInto(perSocket []float64, c Config, loads []SocketLoad) (total float64) {
	if len(perSocket) != p.Sockets {
		panic("machine: PowerInto slice length mismatch")
	}
	for s := 0; s < p.Sockets; s++ {
		var l SocketLoad
		if s < len(loads) {
			l = loads[s]
		}
		perSocket[s] = p.SocketPower(c, s, l)
		total += perSocket[s]
	}
	return total
}
