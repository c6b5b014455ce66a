package repair

import (
	"fmt"
	"math"

	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// Severity grades a detection, worst first. The repair ladder keys off it:
// Drifted is fixed by a program-verify refresh, Damaged needs delta-rule
// tuning around broken devices, Critical needs spare remapping.
type Severity int

const (
	Healthy  Severity = iota
	Drifted           // weights out of program-verify tolerance, no broken hardware implicated
	Damaged           // damaging stuck devices present and canary agreement below floor
	Critical          // dead slots in service, or agreement collapsed
)

func (s Severity) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Drifted:
		return "drifted"
	case Damaged:
		return "damaged"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// DetectConfig tunes the online monitor.
type DetectConfig struct {
	// AgreementFloor is the canary agreement below which the deployment
	// counts as damaged (with broken devices) or drifted (without).
	AgreementFloor float64
	// CriticalFloor is the agreement below which the deployment is critical
	// regardless of what the scans show.
	CriticalFloor float64
	// DriftFraction is the tolerated fraction of scanned cells out of
	// program-verify tolerance before the deployment counts as drifted.
	DriftFraction float64
	// ScanUnits caps how many scan units (dense allocations plus one unit
	// per conv layer) each probe verifies, rotating through the mapping so
	// successive probes cover everything; 0 scans all units every probe.
	ScanUnits int
	// Workers parallelizes the canary classification.
	Workers int
}

// DefaultDetectConfig returns the monitor settings the campaigns use.
func DefaultDetectConfig() DetectConfig {
	return DetectConfig{AgreementFloor: 0.9, CriticalFloor: 0.6, DriftFraction: 0.01, Workers: 1}
}

// Detection is one probe's typed degradation report.
type Detection struct {
	// Agreement is the canary-prediction agreement against the golden
	// predictions recorded from the clean reference at deployment time.
	Agreement float64 `json:"agreement"`
	// Scanned and OutOfTol summarize the sampled program-verify scan:
	// cross-points compared and cross-points deviating from their target by
	// more than half a conductance-level step.
	Scanned  int `json:"scanned"`
	OutOfTol int `json:"out_of_tol"`
	// MaxErr is the largest weight deviation the scan saw.
	MaxErr float64 `json:"max_err"`
	// BadTaps counts damaging stuck devices over the whole mapping at the
	// current age; DeadAllocs counts allocations sitting on dead slots.
	BadTaps    int `json:"bad_taps"`
	DeadAllocs int `json:"dead_allocs"`
	// Severity grades the report.
	Severity Severity `json:"severity"`
}

// DriftFrac returns the out-of-tolerance fraction of the scan.
func (d Detection) DriftFrac() float64 {
	if d.Scanned == 0 {
		return 0
	}
	return float64(d.OutOfTol) / float64(d.Scanned)
}

// Degraded reports whether the detection calls for any repair.
func (d Detection) Degraded() bool { return d.Severity > Healthy }

// scanUnit is one verifiable region: a dense allocation's used window, or a
// conv layer's shared kernel bank (keyed by alloc == -1).
type scanUnit struct {
	layer, alloc int
}

// Detector watches a deployment: known-answer canary probes against golden
// predictions from the clean reference, plus rotating sampled program-verify
// scans over the mapped crossbars. Probes never mutate the deployment
// beyond its stats counters.
type Detector struct {
	dep    *Deployment
	cfg    DetectConfig
	inputs []tensor.Vec
	enc    snn.EncoderFactory
	steps  int
	golden []int
	units  []scanUnit
	cursor int
}

// NewDetector records golden predictions for the canary inputs on the clean
// reference and prepares the scan rotation.
func NewDetector(dep *Deployment, cfg DetectConfig, inputs []tensor.Vec, enc snn.EncoderFactory, steps int) (*Detector, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("repair: detector needs canary inputs")
	}
	ref, err := snn.RunBatch(dep.Ref(), inputs, enc, steps, cfg.Workers)
	if err != nil {
		return nil, err
	}
	dt := &Detector{dep: dep, cfg: cfg, inputs: inputs, enc: enc, steps: steps}
	dt.golden = make([]int, len(ref))
	for i, r := range ref {
		dt.golden[i] = r.Prediction
	}
	for li, l := range dep.Net.Layers {
		switch l.Kind {
		case snn.DenseLayer:
			for ai := range dep.Map.Layers[li].MCAs {
				dt.units = append(dt.units, scanUnit{layer: li, alloc: ai})
			}
		case snn.ConvLayer:
			dt.units = append(dt.units, scanUnit{layer: li, alloc: -1})
		}
	}
	return dt, nil
}

// Canaries returns the detector's probe inputs — the repair ladder reuses
// them as the delta rule's calibration set.
func (dt *Detector) Canaries() []tensor.Vec { return dt.inputs }

// Probe runs one detection round: canary classification against the golden
// predictions, a sampled scan, and a damage survey. The scan cursor
// advances so consecutive probes verify different crossbars.
func (dt *Detector) Probe() (Detection, error) {
	got, err := snn.RunBatch(dt.dep.Net, dt.inputs, dt.enc, dt.steps, dt.cfg.Workers)
	if err != nil {
		return Detection{}, err
	}
	agree := 0
	for i := range got {
		if got[i].Prediction == dt.golden[i] {
			agree++
		}
	}
	det := Detection{Agreement: float64(agree) / float64(len(got))}

	n := dt.cfg.ScanUnits
	if n <= 0 || n > len(dt.units) {
		n = len(dt.units)
	}
	for i := 0; i < n; i++ {
		u := dt.units[(dt.cursor+i)%len(dt.units)]
		dt.scan(u, &det)
	}
	dt.cursor = (dt.cursor + n) % len(dt.units)

	for _, h := range dt.dep.Survey() {
		if h.Dead {
			det.DeadAllocs++
		}
		det.BadTaps += h.BadTaps
	}
	det.Severity = dt.grade(det)
	dt.dep.Stats.Probes++
	return det, nil
}

// scan compares the deployed weights of one unit against the clean
// reference with the program-verify tolerance (half a level step), the same
// criterion xbar.ScanVerify applies on a physical crossbar.
func (dt *Detector) scan(u scanUnit, det *Detection) {
	l := dt.dep.Net.Layers[u.layer]
	ref := dt.dep.Ref().Layers[u.layer]
	mapper := dt.dep.mappers[u.layer]
	tol := 0.5 * mapper.WMax / float64(mapper.Tech.Levels-1)
	check := func(got, want float64) {
		det.Scanned++
		if e := math.Abs(got - want); e > tol {
			det.OutOfTol++
			if e > det.MaxErr {
				det.MaxErr = e
			}
		}
	}
	if u.alloc < 0 {
		for i := range l.W.Data {
			check(l.W.Data[i], ref.W.Data[i])
		}
		return
	}
	a := &dt.dep.Map.Layers[u.layer].MCAs[u.alloc]
	for _, in := range a.Inputs {
		for _, out := range a.Outputs {
			check(l.W.At(int(out), int(in)), ref.W.At(int(out), int(in)))
		}
	}
}

// grade applies the severity ladder.
func (dt *Detector) grade(d Detection) Severity {
	switch {
	case d.DeadAllocs > 0 || d.Agreement < dt.cfg.CriticalFloor:
		return Critical
	case d.BadTaps > 0 && d.Agreement < dt.cfg.AgreementFloor:
		return Damaged
	case d.DriftFrac() > dt.cfg.DriftFraction || d.Agreement < dt.cfg.AgreementFloor:
		return Drifted
	default:
		return Healthy
	}
}
