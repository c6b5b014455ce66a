// Package repair closes RESPARC's reliability loop: it turns the one-shot
// fault machinery (seeded campaigns, program-verify, spare remapping) into a
// continuous lifetime process. A Deployment binds a mapped network to a
// fault.Lifetime model and ages it in place — conductance drift grows with
// the inference count and wear-out stuck-at failures accumulate — while a
// Detector watches the deployed network with canary probes and sampled
// verify scans, and a tiered repair ladder (program-verify refresh →
// crossbar-local delta-rule fine-tuning → escalation to spare remapping)
// recovers agreement with the clean reference.
//
// Determinism: everything downstream of the lifetime seed is reproducible —
// aging draws are pure functions of (seed, physical slot, refresh epoch),
// detection uses seeded encoders, and the delta rule is plain arithmetic —
// so a seeded lifetime campaign writes byte-identical result rows on every
// run, the same contract the fault sweep and the perf suite already honor.
package repair

import (
	"fmt"
	"sync"

	"resparc/internal/fault"
	"resparc/internal/mapping"
	"resparc/internal/quant"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// Deployment is one mapped network aging in service. Net is the live
// network — the same *snn.Network the serving backends evaluate — and its
// weight matrices are rewritten in place as the deployment ages or repairs,
// with the weight-derived caches invalidated coherently on every rewrite.
//
// Callers own quiescence: AdvanceTo and the repair operations mutate Net,
// so no evaluation may be in flight while they run (the serve integration
// holds the model's repair write-lock during the repair window; the bench
// campaigns are single-threaded over the deployment between batch runs).
type Deployment struct {
	Net  *snn.Network
	Map  *mapping.Mapping
	Life fault.Lifetime

	// ref is the clean quantized reference — the network a fault-free,
	// undrifted chip computes. Golden canary predictions and the delta
	// rule's teacher drives come from it.
	ref *snn.Network
	// targets holds the logical weights the controller programs, per layer
	// (nil for pool layers). Delta-rule repair retunes these; aging and
	// refresh re-derive Net's effective weights from them.
	targets []*tensor.Mat
	mappers []*quant.Mapper
	age     float64
	// epoch and refreshAge track per-slot program-verify refreshes: a
	// refresh restarts the slot's drift clock (sigma counts from the
	// refresh age) on a fresh deterministic drift stream (the epoch).
	epoch      map[fault.SlotID]int
	refreshAge map[fault.SlotID]float64

	// Stats accumulates lifetime repair activity for metrics export.
	Stats Stats

	mu sync.Mutex
}

// Stats counts cumulative repair activity over the deployment's life.
type Stats struct {
	Probes         int // detector probes run
	Refreshes      int // slots refreshed (program-verify rewrite)
	CellsRewritten int // cross-points rewritten by refreshes
	DeltaAllocs    int // allocations delta-rule tuned
	DeltaUpdates   int // individual weight updates applied
	Moves          int // allocations remapped to spares
	Escalations    int // remap escalations triggered
}

// convSlot is the pseudo-slot keying a conv layer's representative drift
// stream — disjoint from physical slot ids (negative mPE), matching the
// fault sweep's convention so shared kernels age deterministically too.
func convSlot(li int) fault.SlotID { return fault.SlotID{MPE: -1 - li, Slot: 0} }

// NewDeployment binds a network to its mapping and lifetime model, builds
// the clean quantized reference, and applies the age-0 state (fabrication
// defects and conductance quantization) to Net in place.
func NewDeployment(net *snn.Network, m *mapping.Mapping, lt fault.Lifetime) (*Deployment, error) {
	if err := lt.Validate(); err != nil {
		return nil, err
	}
	d := &Deployment{
		Net: net, Map: m, Life: lt,
		targets:    make([]*tensor.Mat, len(net.Layers)),
		mappers:    make([]*quant.Mapper, len(net.Layers)),
		epoch:      make(map[fault.SlotID]int),
		refreshAge: make(map[fault.SlotID]float64),
	}
	refLayers := make([]*snn.Layer, 0, len(net.Layers))
	for li, l := range net.Layers {
		if l.Kind == snn.PoolLayer {
			nl, err := snn.NewPool(l.Name, l.In, l.Geom.K, l.Threshold)
			if err != nil {
				return nil, err
			}
			nl.Leak, nl.HardReset = l.Leak, l.HardReset
			refLayers = append(refLayers, nl)
			continue
		}
		mapper, err := quant.NewMapper(m.Cfg.Tech, l.W.MaxAbs())
		if err != nil {
			return nil, err
		}
		d.mappers[li] = mapper
		d.targets[li] = l.W.Clone()
		// Clean reference: quantization only — no stuck devices, no drift.
		rw := l.W.Clone()
		for i, x := range rw.Data {
			rw.Data[i] = fault.EffectiveWeight(mapper, x, fault.DeviceOK, fault.DeviceOK, 1, 1)
		}
		var nl *snn.Layer
		switch l.Kind {
		case snn.DenseLayer:
			nl, err = snn.NewDense(l.Name, l.InSize(), l.OutSize(), rw, l.Threshold)
			if err == nil {
				nl.In, nl.Out = l.In, l.Out
			}
		case snn.ConvLayer:
			nl, err = snn.NewConv(l.Name, l.Geom, rw, l.Threshold)
		default:
			err = fmt.Errorf("repair: unknown layer kind %v", l.Kind)
		}
		if err != nil {
			return nil, err
		}
		nl.Leak, nl.HardReset = l.Leak, l.HardReset
		refLayers = append(refLayers, nl)
	}
	ref, err := snn.NewNetwork(net.Name+"-ref", net.Input, refLayers...)
	if err != nil {
		return nil, err
	}
	d.ref = ref
	d.apply()
	return d, nil
}

// Ref returns the clean quantized reference network (never mutated).
func (d *Deployment) Ref() *snn.Network { return d.ref }

// Age returns the deployment's current age in inferences.
func (d *Deployment) Age() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.age
}

// AdvanceTo ages the deployment to the given inference count and rewrites
// Net's weights in place: drift magnitudes grow (per-cell directions are
// stable within a refresh epoch, so degradation is monotone), and wear-out
// failures born by the new age take effect. Age can only move forward.
func (d *Deployment) AdvanceTo(age float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if age < d.age {
		return fmt.Errorf("repair: cannot rejuvenate from %g to %g inferences", d.age, age)
	}
	d.age = age
	d.apply()
	return nil
}

// RefreshAll runs a program-verify refresh of every mapped slot (and the
// conv pseudo-slots): drifted cells are rewritten back to their targets, so
// each slot's drift clock restarts at the current age on a fresh epoch.
// Stuck devices are broken hardware — a rewrite cannot move them, and their
// damage persists. Returns the number of slots refreshed.
func (d *Deployment) RefreshAll() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for li, l := range d.Net.Layers {
		switch l.Kind {
		case snn.DenseLayer:
			lm := &d.Map.Layers[li]
			for ai := range lm.MCAs {
				a := &lm.MCAs[ai]
				d.refreshSlot(fault.SlotID{MPE: a.MPE, Slot: a.Slot}, len(a.Inputs)*len(a.Outputs))
				n++
			}
		case snn.ConvLayer:
			d.refreshSlot(convSlot(li), len(l.W.Data))
			n++
		}
	}
	d.apply()
	return n
}

func (d *Deployment) refreshSlot(id fault.SlotID, cells int) {
	d.epoch[id]++
	d.refreshAge[id] = d.age
	d.Stats.Refreshes++
	d.Stats.CellsRewritten += cells
}

// Survey reports the allocations damaged at the current age — fabrication
// defects plus wear-out failures — in placement order, ready for remap
// escalation.
func (d *Deployment) Survey() []mapping.MCAHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Map.SurveyCells(d.Life.Camp.SlotDead, d.stuckCellsAt)
}

// stuckCellsAt enumerates the slot's stuck devices (fabrication + wear) at
// the current age in canonical order.
func (d *Deployment) stuckCellsAt(id fault.SlotID, rows, cols int) []fault.StuckCell {
	cm := d.Life.CellMapAt(id, rows, cols, d.age)
	var out []fault.StuckCell
	for _, plane := range []fault.Plane{fault.Pos, fault.Neg} {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if s := cm.At(r, c, plane); s != fault.DeviceOK {
					out = append(out, fault.StuckCell{R: r, C: c, Plane: plane, State: s})
				}
			}
		}
	}
	return out
}

// Escalate runs PR 4's fault-aware remapping against the current-age damage:
// allocations over the tolerance move to screened spare slots, which start
// their drift clock at the current age (they are programmed now). Returns
// the remap report.
func (d *Deployment) Escalate(spareMPEs, maxBadTaps int) (*mapping.RemapReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	health := d.Map.SurveyCells(d.Life.Camp.SlotDead, d.stuckCellsAt)
	rep, err := d.Map.RemapFaulty(health, mapping.RemapConfig{
		SpareMPEs:  spareMPEs,
		MaxBadTaps: maxBadTaps,
		Screen:     d.Map.ScreenCells(d.Life.Camp.SlotDead, d.stuckCellsAt, maxBadTaps),
	})
	if err != nil {
		return nil, err
	}
	for _, mv := range rep.Moves {
		d.refreshAge[mv.To] = d.age
	}
	d.Stats.Escalations++
	d.Stats.Moves += len(rep.Moves)
	d.apply()
	return rep, nil
}

// apply rewrites Net's weights in place to the deployment's current state:
// every dense tap reads back through its physical cell's quantization,
// stuck state (fabrication + wear born by the current age) and drift (sigma
// counted from the slot's last refresh, directions from its epoch stream);
// taps on dead slots vanish; conv kernels take quantization plus the
// representative per-tap drift of their pseudo-slot. Same draw order as the
// one-shot fault sweep, so a never-refreshed deployment at age A computes
// exactly what the sweep's faulted network computes at drift age A.
// Callers hold d.mu.
func (d *Deployment) apply() {
	for li, l := range d.Net.Layers {
		size := d.Map.LayerSize(li)
		switch l.Kind {
		case snn.DenseLayer:
			tgt := d.targets[li]
			copy(l.W.Data, tgt.Data)
			lm := &d.Map.Layers[li]
			for ai := range lm.MCAs {
				a := &lm.MCAs[ai]
				id := fault.SlotID{MPE: a.MPE, Slot: a.Slot}
				dead := d.Life.Camp.SlotDead(id)
				sigma := d.Life.Camp.DriftSigmaAt(d.age - d.refreshAge[id])
				cm := d.Life.CellMapAt(id, size, size, d.age)
				rng := d.Life.Camp.DriftRngEpoch(id, d.epoch[id])
				for r, in := range a.Inputs {
					for c, out := range a.Outputs {
						dp := fault.DriftFactor(rng, sigma)
						dn := fault.DriftFactor(rng, sigma)
						if dead {
							l.W.Set(int(out), int(in), 0)
							continue
						}
						eff := fault.EffectiveWeight(d.mappers[li], tgt.At(int(out), int(in)),
							cm.At(r, c, fault.Pos), cm.At(r, c, fault.Neg), dp, dn)
						l.W.Set(int(out), int(in), eff)
					}
				}
			}
		case snn.ConvLayer:
			tgt := d.targets[li]
			id := convSlot(li)
			sigma := d.Life.Camp.DriftSigmaAt(d.age - d.refreshAge[id])
			rng := d.Life.Camp.DriftRngEpoch(id, d.epoch[id])
			for i, x := range tgt.Data {
				dp := fault.DriftFactor(rng, sigma)
				dn := fault.DriftFactor(rng, sigma)
				l.W.Data[i] = fault.EffectiveWeight(d.mappers[li], x, fault.DeviceOK, fault.DeviceOK, dp, dn)
			}
		}
	}
	d.Net.InvalidateWeightCaches()
}

// Agreement classifies inputs on the deployed network and on the clean
// reference and returns the prediction agreement fraction.
func (d *Deployment) Agreement(inputs []tensor.Vec, enc snn.EncoderFactory, steps, workers int) (float64, error) {
	got, err := snn.RunBatch(d.Net, inputs, enc, steps, workers)
	if err != nil {
		return 0, err
	}
	ref, err := snn.RunBatch(d.ref, inputs, enc, steps, workers)
	if err != nil {
		return 0, err
	}
	agree := 0
	for i := range got {
		if got[i].Prediction == ref[i].Prediction {
			agree++
		}
	}
	return float64(agree) / float64(len(got)), nil
}
