package core

import (
	"resparc/internal/bitvec"
	"resparc/internal/event"
	"resparc/internal/mapping"
)

// This file is the chip's accounting kernel: the transaction-level model of
// §3 charged per (timestep, layer) over the mapping's compiled plans
// (mapping.LayerMapping.Plan). Each (timestep, layer) visit first counts the
// layer's input word-parallel (LayerPlan.Count): every row set — a distinct
// MCA input list, shared by MCAs with identical inputs — gets its
// spiking-row count as a masked popcount over the 64-bit input words it
// reads, and one pass over the packet words marks occupancy. The cost scales
// with row sets x words, not spikes x fan-out. Charges then flow run by run —
// an mPE run's active MCAs in allocation order, then the run's deduped
// source words in first-encounter order. That fixed order pins every float
// sum, so energies are reproducible bit for bit across runs, worker counts
// and shard cuts.
//
// Each stage's duration is recorded split by resource class (Report.Stages)
// and Counts.Cycles is their serial sum. event.Pipeline composes the same
// grid into the pipelined Fig 7(a) makespan, where layer stages overlap
// across timesteps and bus phases serialize on the shared global bus (see
// Report.Pipelined, and internal/shard for the multi-chip pipeline).

// chipPlans is the compiled accounting plan of one mapping generation.
type chipPlans struct {
	gen    uint64
	layers []mapping.LayerPlan
}

// layerPlans returns the compiled plans of the chip's mapping, rebuilding
// them when the mapping's Generation has moved (an in-place RemapFaulty).
// Fault campaigns only gate Healthy and never touch the mapping.
func (c *Chip) layerPlans() *chipPlans {
	gen := c.Map.Generation()
	if cp := c.plans.Load(); cp != nil && cp.gen == gen {
		return cp
	}
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if cp := c.plans.Load(); cp != nil && cp.gen == gen {
		return cp
	}
	cp := &chipPlans{gen: gen, layers: make([]mapping.LayerPlan, len(c.Map.Layers))}
	for li := range c.Map.Layers {
		cp.layers[li] = c.Map.Layers[li].Plan(c.Map.LayerSize(li), c.Opt.PacketWidth, c.Opt.Params)
	}
	c.plans.Store(cp)
	return cp
}

// layerScratch is one layer's per-observer scratch, fully overwritten on
// every (step, layer) visit.
type layerScratch struct {
	groups []int32 // active-MCA count per output group
	rows   []int32 // spiking-row count per row set
	occ    []bool  // packet-word occupancy
}

func (o *observer) layerScratch(j int, lm *mapping.LayerMapping, pl *mapping.LayerPlan) *layerScratch {
	sc := &o.scratch[j]
	if sc.rows == nil {
		sc.groups = make([]int32, lm.Groups)
		sc.rows = make([]int32, pl.NSets)
		sc.occ = make([]bool, pl.NWords)
	}
	return sc
}

// stageRow returns the duration row for a step, growing the grid as steps
// are observed (every entry is overwritten).
func (o *observer) stageRow(step int) []event.Stage {
	for len(o.stages) <= step {
		o.stages = append(o.stages, make([]event.Stage, o.hi-o.lo))
	}
	if step+1 > o.nsteps {
		o.nsteps = step + 1
	}
	return o.stages[step]
}

// ObserveStep implements snn.Observer: it charges one timestep's events.
// layers holds the spike vectors of the observed range only (local indices);
// input is the spike vector feeding the range's first layer.
func (o *observer) ObserveStep(step int, input *bitvec.Bits, layers []*bitvec.Bits) {
	c := o.chip
	p := c.Opt.Params
	w := c.Opt.PacketWidth
	ed := c.Opt.EventDriven
	cur := input
	row := o.stageRow(step)
	for j := 0; j < o.hi-o.lo; j++ {
		gi := o.lo + j
		lm := &c.Map.Layers[gi]
		pl := &o.plans.layers[gi]
		le := &o.layerE[j]
		prevCnt := o.cnt
		prevE := *le

		// Count the input: spiking rows per row set, occupied packet words.
		sc := o.layerScratch(j, lm, pl)
		rows, occ := sc.rows, sc.occ
		occWords := pl.Count(cur, rows, occ)

		// ---- Global control: event-flag synchronization (flags are read
		// eight NeuroCells per access) ----
		syncCycles := p.SyncCyclesPerNC * ((lm.NCLast - lm.NCFirst + 1 + 7) / 8)
		o.breakdown.Sync += syncCycles

		// ---- Global bus & SRAM (§3.1.3) ----
		busCycles := 0
		if c.Map.CrossNC(gi) {
			total := (cur.Len() + w - 1) / w
			sent := occWords
			zero := total - sent
			if !ed {
				sent = total
				zero = 0
			}
			le.Peripherals += float64(total) * p.ZeroCheck
			// Producer write to SRAM + broadcast read: two bus transactions
			// and two SRAM accesses per surviving word (layer 0 is loaded by
			// the host, so only the broadcast read applies).
			per := 2.0
			if gi == 0 {
				per = 1.0
			}
			le.Peripherals += float64(sent) * per * (p.BusWord + c.sram.AccessEnergy())
			o.cnt.BusWords += sent
			o.cnt.BusWordsSuppressed += zero
			// Broadcast serializes on the bus, several words per cycle.
			busCycles = (sent + p.BusWordsPerCycle - 1) / p.BusWordsPerCycle
			o.busCycles += busCycles
			o.breakdown.Bus += busCycles
		}

		// ---- Switch network delivery + MCA activity ----
		// Spike packets are the width-bit aligned words of the producer
		// layer's spike vector, zero-checked at the sending switch (§3.2)
		// and delivered once per target mPE (the mPE's buffers fan a word
		// out to its resident MCAs). Run by run: the active MCAs' charges in
		// allocation order, then the run's word charges.
		delivered := 0
		maxMux := int32(0)
		ga := sc.groups
		clear(ga)
		for ri := range pl.Runs {
			run := &pl.Runs[ri]
			for mi := run.MCALo; mi < run.MCAHi; mi++ {
				mp := &pl.MCAs[mi]
				r := rows[mp.RowSet]
				if r == 0 && ed {
					continue
				}
				o.cnt.MCAActivations++
				o.cnt.RowsDriven += int(r)
				le.Peripherals += p.MPEControl
				le.Crossbar += float64(r) * mp.FactorXbar
				o.cnt.Integrations += int(mp.Outs)
				le.Neuron += mp.IntegrateE
				if mp.Ext {
					o.cnt.ExtTransfers++
				}
				if ga[mp.Group]++; ga[mp.Group] > maxMux {
					maxMux = ga[mp.Group]
				}
			}
			for wi := run.WordLo; wi < run.WordHi; wi++ {
				le.Peripherals += p.ZeroCheck
				if occ[pl.Words[wi]] || !ed {
					delivered++
					le.Peripherals += p.SwitchHop + 2*p.BufferAccess
				} else {
					o.cnt.PacketsSuppressed++
				}
			}
		}
		o.cnt.PacketsDelivered += delivered
		sw := lm.Switches(c.Map.Cfg)
		deliveryCycles := (delivered + sw - 1) / sw
		o.breakdown.Delivery += deliveryCycles
		integrateCycles := int(maxMux) * p.IntegrateCycles
		o.breakdown.Integrate += integrateCycles

		// ---- Fire ----
		out := layers[j]
		spikes := out.Count()
		o.cnt.Spikes += spikes
		o.layerSpikes[j] += spikes
		le.Neuron += float64(spikes) * p.NeuronSpike
		// Every spike is handled by the peripherals: oBUFF write, tBUFF
		// target lookup, packet assembly.
		le.Peripherals += float64(spikes) * p.SpikeHandling
		// Spikes drain through the mPEs' output ports in parallel, one per
		// mPE per cycle.
		drainCycles := 0
		if spikes > 0 || maxMux > 0 {
			mpes := lm.MPELast - lm.MPEFirst + 1
			drainCycles = (spikes + mpes - 1) / mpes
			if spikes == 0 {
				drainCycles++ // threshold-check cycle with no spikes
			}
			o.breakdown.Drain += drainCycles
		}

		local := deliveryCycles + integrateCycles + drainCycles
		row[j] = event.Stage{Sync: int32(syncCycles), Bus: int32(busCycles), Local: int32(local)}
		stage := syncCycles + busCycles + local
		o.cnt.Cycles += stage
		o.layerCycles[j] += stage

		if c.Opt.Trace != nil {
			o.writeTrace(step, gi, cur, out, prevCnt, prevE)
		}
		cur = out
	}
}
