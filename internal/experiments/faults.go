package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"resparc/internal/bench"
	"resparc/internal/fault"
	"resparc/internal/mapping"
	"resparc/internal/quant"
	"resparc/internal/report"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// This file is the accuracy-under-fault sweep closing the robustness loop:
// a seeded fault.Campaign (stuck devices at the technology defect rate and
// above, lognormal conductance drift growing with elapsed inferences, and a
// small set of dead mPEs modelling yield loss) is applied to every Fig 10
// benchmark, with the fault-aware remapping pass on and off. The metric is
// prediction agreement against the clean quantized reference on the same
// inputs and encoders, so the numbers isolate fault damage from
// quantization and encoding effects.
//
// Fidelity note: dense layers get exact per-tap fault application — every
// cross-point reads back through fault.EffectiveWeight with its own stuck
// state and drift draw. Conv kernels are weight-shared across thousands of
// physical cells, so a per-cell fault has no single logical weight to land
// on; conv layers take quantization plus one representative drift draw per
// kernel tap, while their stuck/dead damage is captured by the survey and
// remap reporting (Faulty, ResidualBadTaps, EstAccuracyLoss) rather than
// the functional agreement. The MLP benchmarks therefore carry the full
// functional signal.

// FaultsConfig parameterizes the sweep.
type FaultsConfig struct {
	Config
	// StuckFractions is the stuck-device axis. 0 must be included to anchor
	// the fault-free row; the technology default (AgSi: 0.002) is the
	// acceptance operating point.
	StuckFractions []float64
	// DriftAges is the elapsed-inference axis for conductance drift.
	DriftAges []float64
	// DriftSigma scales the lognormal drift (see fault.Campaign).
	DriftSigma float64
	// DeadMPEFrac kills this fraction of mapped mPEs (at least one when
	// positive) — the whole-array yield loss remapping exists to absorb.
	DeadMPEFrac float64
	// SpareMPEs is the spare pool per mapping; <= 0 derives one large
	// enough for the dead mPEs plus screening burn.
	SpareMPEs int
	// MaxBadTaps is the remap tolerance: allocations with at most this many
	// damaging stuck taps stay in place, and spare slots must beat it to
	// pass the screen.
	MaxBadTaps int
	// Benches overrides the benchmark set (nil: all six Fig 10 networks).
	Benches []bench.Benchmark
}

// DefaultFaultsConfig is the full sweep: all six benchmarks, the Ag-Si
// defect rate bracketed by a clean and a pessimistic point, fresh and aged
// drift.
func DefaultFaultsConfig() FaultsConfig {
	c := FaultsConfig{
		Config:         DefaultConfig(),
		StuckFractions: []float64{0, 0.002, 0.01},
		DriftAges:      []float64{0, 1e5},
		DriftSigma:     0.1,
		DeadMPEFrac:    0.02,
		MaxBadTaps:     24,
	}
	c.Samples = 40
	return c
}

// QuickFaultsConfig reduces fidelity for tests and smoke runs. Unlike
// QuickConfig it keeps the full 48 timesteps: the benchmarks' output layers
// need ~20 steps before the first output spike, and with no output spikes
// every prediction ties at class 0 and the agreement metric is blind.
func QuickFaultsConfig() FaultsConfig {
	c := DefaultFaultsConfig()
	c.Samples = 12
	c.StuckFractions = []float64{0, 0.002}
	c.DriftAges = []float64{0}
	return c
}

// FaultPoint is one (benchmark, campaign, remap) measurement.
type FaultPoint struct {
	Bench         string  `json:"bench"`
	StuckFraction float64 `json:"stuck_fraction"`
	DriftAge      float64 `json:"drift_age"`
	DriftSigma    float64 `json:"drift_sigma"` // effective sigma at DriftAge
	DeadMPEs      int     `json:"dead_mpes"`
	Remap         bool    `json:"remap"`

	// Agreement is the fraction of samples whose prediction matches the
	// clean quantized reference network.
	Agreement float64 `json:"agreement"`

	// Survey / remap outcome (Moves..EstAccuracyLoss are zero when Remap
	// is off).
	Faulty          int     `json:"faulty"`
	Moves           int     `json:"moves"`
	SparesUsed      int     `json:"spares_used"`
	Degraded        int     `json:"degraded"`
	ResidualBadTaps int     `json:"residual_bad_taps"`
	EstAccuracyLoss float64 `json:"est_accuracy_loss"`
}

// FaultsResult is the machine-readable sweep output (-fig faults JSON). It
// contains no timestamps or host state: the same seed produces a
// byte-identical file.
type FaultsResult struct {
	Seed       int64        `json:"seed"`
	MCASize    int          `json:"mca_size"`
	Steps      int          `json:"steps"`
	Samples    int          `json:"samples"`
	DriftSigma float64      `json:"drift_sigma"`
	MaxBadTaps int          `json:"max_bad_taps"`
	Points     []FaultPoint `json:"points"`
}

// Recovered returns the accuracy lost without remapping and the fraction of
// it the remapping pass recovers, at one (benchmark, stuck, age) operating
// point. ok is false when the sweep has no such pair of points or nothing
// was lost.
func (r *FaultsResult) Recovered(benchName string, stuck, age float64) (lost, frac float64, ok bool) {
	var off, on *FaultPoint
	for i := range r.Points {
		p := &r.Points[i]
		if p.Bench != benchName || p.StuckFraction != stuck || p.DriftAge != age {
			continue
		}
		if p.Remap {
			on = p
		} else {
			off = p
		}
	}
	if off == nil || on == nil {
		return 0, 0, false
	}
	lost = 1 - off.Agreement
	if lost <= 0 {
		return 0, 0, false
	}
	return lost, (on.Agreement - off.Agreement) / lost, true
}

// FigFaults runs the sweep.
func FigFaults(cfg FaultsConfig) (*FaultsResult, *report.Table, error) {
	benches := cfg.Benches
	if benches == nil {
		benches = bench.All()
	}
	res := &FaultsResult{
		Seed:       cfg.Seed,
		MCASize:    cfg.MCASize,
		Steps:      cfg.Steps,
		Samples:    cfg.Samples,
		DriftSigma: cfg.DriftSigma,
		MaxBadTaps: cfg.MaxBadTaps,
	}
	for _, b := range benches {
		if err := runFaultBench(b, cfg, res); err != nil {
			return nil, nil, fmtErr("faults", err)
		}
	}
	t := report.NewTable("Accuracy under faults (agreement vs clean quantized reference)",
		"Benchmark", "Stuck", "Drift age", "Remap", "Agreement", "Faulty", "Moves", "Degraded", "Est loss")
	for _, p := range res.Points {
		remap := "off"
		if p.Remap {
			remap = "on"
		}
		t.Add(p.Bench, fmt.Sprintf("%g", p.StuckFraction), fmt.Sprintf("%g", p.DriftAge), remap,
			fmt.Sprintf("%.3f", p.Agreement), fmt.Sprintf("%d", p.Faulty),
			fmt.Sprintf("%d", p.Moves), fmt.Sprintf("%d", p.Degraded),
			fmt.Sprintf("%.4f", p.EstAccuracyLoss))
	}
	return res, t, nil
}

func runFaultBench(b bench.Benchmark, cfg FaultsConfig, res *FaultsResult) error {
	net, err := b.Build(cfg.Seed)
	if err != nil {
		return err
	}
	m, err := mapping.Map(net, cfg.mapConfig(cfg.MCASize))
	if err != nil {
		return err
	}
	inputs, err := inputsFor(b, net, cfg.Config)
	if err != nil {
		return err
	}
	enc := cfg.encoders()
	cleanNet, err := faultedNetworkOn(net, m, fault.Campaign{}, 0)
	if err != nil {
		return err
	}
	ref, err := snn.RunBatch(cleanNet, inputs, enc, cfg.Steps, cfg.Workers)
	if err != nil {
		return err
	}
	dead := deadMPEPick(cfg.Seed, m.MPEs, cfg.DeadMPEFrac)
	for _, stuck := range cfg.StuckFractions {
		for _, age := range cfg.DriftAges {
			camp := fault.NewCampaign(cfg.Seed, cfg.Tech)
			camp.StuckFraction = stuck
			camp.DriftSigma = cfg.DriftSigma
			camp.DeadMPEs = dead
			for _, remap := range []bool{false, true} {
				p, err := runFaultPoint(b, net, camp, age, remap, cfg, inputs, enc, ref)
				if err != nil {
					return err
				}
				res.Points = append(res.Points, p)
			}
		}
	}
	return nil
}

func runFaultPoint(b bench.Benchmark, net *snn.Network, camp fault.Campaign, age float64,
	remap bool, cfg FaultsConfig, inputs []tensor.Vec, enc snn.EncoderFactory, ref []snn.RunResult) (FaultPoint, error) {
	// Each point gets a fresh mapping: RemapFaulty mutates placements.
	m, err := mapping.Map(net, cfg.mapConfig(cfg.MCASize))
	if err != nil {
		return FaultPoint{}, err
	}
	p := FaultPoint{
		Bench:         b.Name,
		StuckFraction: camp.StuckFraction,
		DriftAge:      age,
		DriftSigma:    camp.DriftSigmaAt(age),
		DeadMPEs:      len(camp.DeadMPEs),
		Remap:         remap,
	}
	health := m.SurveyCampaign(camp)
	p.Faulty = len(health)
	if remap {
		spares := cfg.SpareMPEs
		if spares <= 0 {
			// Room for every dead mPE's allocations plus screening burn.
			spares = 2*len(camp.DeadMPEs) + 4
		}
		rep, err := m.RemapFaulty(health, mapping.RemapConfig{
			SpareMPEs:  spares,
			MaxBadTaps: cfg.MaxBadTaps,
			Screen:     m.CampaignScreen(camp, cfg.MaxBadTaps),
		})
		if err != nil {
			return FaultPoint{}, err
		}
		p.Moves = len(rep.Moves)
		p.SparesUsed = rep.SparesUsed
		p.Degraded = len(rep.Degraded)
		p.ResidualBadTaps = rep.ResidualBadTaps
		p.EstAccuracyLoss = rep.EstAccuracyLoss
	}
	fnet, err := faultedNetworkOn(net, m, camp, age)
	if err != nil {
		return FaultPoint{}, err
	}
	got, err := snn.RunBatch(fnet, inputs, enc, cfg.Steps, cfg.Workers)
	if err != nil {
		return FaultPoint{}, err
	}
	agree := 0
	for i := range got {
		if got[i].Prediction == ref[i].Prediction {
			agree++
		}
	}
	p.Agreement = float64(agree) / float64(len(got))
	return p, nil
}

// deadMPEPick selects the killed mPEs deterministically from the seed: a
// fixed permutation of the mapped mPE indices, sorted for stable reporting.
func deadMPEPick(seed int64, mpes int, frac float64) []int {
	if frac <= 0 || mpes <= 0 {
		return nil
	}
	k := int(math.Round(frac * float64(mpes)))
	if k < 1 {
		k = 1
	}
	if k > mpes {
		k = mpes
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	dead := append([]int(nil), rng.Perm(mpes)[:k]...)
	sort.Ints(dead)
	return dead
}

// faultedNetworkOn builds the functional network a faulted chip computes:
// every dense tap reads back through its physical crossbar cell's
// quantization, stuck state and drift; taps on dead slots vanish. The zero
// campaign at age 0 yields the clean quantized reference.
func faultedNetworkOn(net *snn.Network, m *mapping.Mapping, camp fault.Campaign, age float64) (*snn.Network, error) {
	sigma := camp.DriftSigmaAt(age)
	layers := make([]*snn.Layer, 0, len(net.Layers))
	for li, l := range net.Layers {
		size := m.LayerSize(li)
		switch l.Kind {
		case snn.DenseLayer:
			mapper, err := quant.NewMapper(m.Cfg.Tech, l.W.MaxAbs())
			if err != nil {
				return nil, err
			}
			w := l.W.Clone()
			for ai := range m.Layers[li].MCAs {
				a := &m.Layers[li].MCAs[ai]
				id := fault.SlotID{MPE: a.MPE, Slot: a.Slot}
				dead := camp.SlotDead(id)
				cm := camp.CellMap(id, size, size)
				rng := camp.DriftRng(id)
				for r, in := range a.Inputs {
					for c, out := range a.Outputs {
						dp := fault.DriftFactor(rng, sigma)
						dn := fault.DriftFactor(rng, sigma)
						if dead {
							w.Set(int(out), int(in), 0)
							continue
						}
						eff := fault.EffectiveWeight(mapper, l.W.At(int(out), int(in)),
							cm.At(r, c, fault.Pos), cm.At(r, c, fault.Neg), dp, dn)
						w.Set(int(out), int(in), eff)
					}
				}
			}
			nl, err := snn.NewDense(l.Name, l.InSize(), l.OutSize(), w, l.Threshold)
			if err != nil {
				return nil, err
			}
			nl.In, nl.Out = l.In, l.Out
			nl.Leak, nl.HardReset = l.Leak, l.HardReset
			layers = append(layers, nl)
		case snn.ConvLayer:
			mapper, err := quant.NewMapper(m.Cfg.Tech, l.W.MaxAbs())
			if err != nil {
				return nil, err
			}
			// Shared kernels: quantization plus one representative drift
			// draw per logical tap (pseudo-slot keyed by layer, disjoint
			// from physical slot ids). Stuck/dead damage is reported by the
			// survey, not applied functionally — see the file comment.
			rng := camp.DriftRng(fault.SlotID{MPE: -1 - li, Slot: 0})
			w := l.W.Clone()
			for i, x := range w.Data {
				dp := fault.DriftFactor(rng, sigma)
				dn := fault.DriftFactor(rng, sigma)
				w.Data[i] = fault.EffectiveWeight(mapper, x, fault.DeviceOK, fault.DeviceOK, dp, dn)
			}
			nl, err := snn.NewConv(l.Name, l.Geom, w, l.Threshold)
			if err != nil {
				return nil, err
			}
			nl.Leak, nl.HardReset = l.Leak, l.HardReset
			layers = append(layers, nl)
		case snn.PoolLayer:
			nl, err := snn.NewPool(l.Name, l.In, l.Geom.K, l.Threshold)
			if err != nil {
				return nil, err
			}
			nl.Leak, nl.HardReset = l.Leak, l.HardReset
			layers = append(layers, nl)
		default:
			return nil, fmt.Errorf("faults: unknown layer kind %v", l.Kind)
		}
	}
	return snn.NewNetwork(net.Name+"-faulted", net.Input, layers...)
}
