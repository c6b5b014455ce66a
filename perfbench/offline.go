package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/core"
	"resparc/internal/dataset"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// The paper's evaluation configuration (experiments.DefaultConfig): 48
// timesteps, Poisson peak probability 0.8, MCA-64 greedy mapping, networks
// built from seed 1. The workload seed never changes the networks, only
// the images and spike streams fed to them.
const (
	steps    = 48
	maxProb  = 0.8
	netSeed  = 1
	poolSize = 64 // distinct seeded images per benchmark
	// batchSize images go to one ClassifyEach call.
	batchSize = 8
	// minRounds rounds always complete, and the modeled means are taken
	// over exactly these, so they depend on the seed alone.
	minRounds = 2
)

var (
	mlpBenches = []string{"mnist-mlp", "svhn-mlp", "cifar-mlp"}
	cnnBenches = []string{"mnist-cnn", "cifar-cnn"}
)

// offlineBench is one benchmark network prepared on the RESPARC chip.
type offlineBench struct {
	name string
	chip *core.Chip
	pool []tensor.Vec
}

// timed runs f inside a span and adds its wall time to st[name].
func timed(tr *tracer, st setupTimes, name string, id int64, parent int, f func() error) error {
	h := tr.begin(name, id, parent)
	start := time.Now()
	err := f()
	st[name] += time.Since(start)
	tr.end(h)
	return err
}

// seededInputs draws n images of the benchmark's dataset from seed, adapted
// to the network's input the way internal/experiments prepares its inputs.
func seededInputs(b bench.Benchmark, net *snn.Network, n int, seed int64) ([]tensor.Vec, error) {
	set := dataset.Generate(b.Dataset, n, seed)
	out := make([]tensor.Vec, len(set.Samples))
	for i, s := range set.Samples {
		in, err := bench.PrepareInput(s.Input, set.Shape, net.Input)
		if err != nil {
			return nil, fmt.Errorf("preparing %s input: %w", b.Name, err)
		}
		out[i] = bench.NormalizeIntensity(in)
	}
	return out, nil
}

func layerCount(name string) int {
	for _, b := range benchLayers {
		if b.name == name {
			return b.layers
		}
	}
	return -1
}

// setupOffline builds, maps and constructs every benchmark's chip and warms
// it with one classification per worker. Input pools are drawn on first use
// and kept in pools; drawing them is not timed.
func setupOffline(names []string, o opts, tr *tracer, rep int, pools map[string][]tensor.Vec) ([]*offlineBench, setupTimes, error) {
	st := setupTimes{}
	root := tr.begin("setup", int64(rep), -1)
	defer tr.end(root)
	out := make([]*offlineBench, 0, len(names))
	for _, name := range names {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, st, err
		}
		ob := &offlineBench{name: name}
		var net *snn.Network
		if err = timed(tr, st, "bench.build", int64(rep), root, func() (err error) {
			net, err = b.Build(netSeed)
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("building %s: %w", name, err)
		}
		if got, want := len(net.Layers), layerCount(name); got != want {
			return nil, st, fmt.Errorf("%s has %d layers, the metric catalog expects %d", name, got, want)
		}
		if pools[name] == nil {
			if pools[name], err = seededInputs(b, net, poolSize, o.seed); err != nil {
				return nil, st, err
			}
		}
		ob.pool = pools[name]
		var m *mapping.Mapping
		if err = timed(tr, st, "mapping.map", int64(rep), root, func() (err error) {
			m, err = mapping.Map(net, mapping.DefaultConfig())
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("mapping %s: %w", name, err)
		}
		if err = timed(tr, st, "core.new", int64(rep), root, func() (err error) {
			copt := core.DefaultOptions()
			copt.Steps = steps
			ob.chip, err = core.New(net, m, copt)
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("preparing chip for %s: %w", name, err)
		}
		// Warm-up forks sit far above any fork a timed round uses.
		warmEnc := snn.NewPoissonEncoder(maxProb, o.seed)
		if err = timed(tr, st, "warmup", int64(rep), root, func() error {
			_, _, err := ob.chip.ClassifyEach(ob.pool[:min(o.workers, len(ob.pool))], func(i int) snn.Encoder { return warmEnc.ForkSeed(1<<30 + i) }, sim.Options{Workers: o.workers})
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("warming %s: %w", name, err)
		}
		out = append(out, ob)
	}
	return out, st, nil
}

// itemResult is what the digest covers for one classified image.
type itemResult struct {
	pred    int
	energy  float64
	latency float64
	cycles  int
}

func chipItem(res perf.Result, rep sim.Report) (itemResult, error) {
	cr, ok := rep.Detail.(core.Report)
	if !ok {
		return itemResult{}, fmt.Errorf("chip report detail is %T, want core.Report", rep.Detail)
	}
	return itemResult{rep.Predicted, res.Energy, res.Latency, cr.Counts.Cycles}, nil
}

// window is one closed-loop pass: rounds of one batch per benchmark. rounds
// and calls are wall times; host has the calibration kernel's time after
// each round (calib.go).
type window struct {
	rounds   []time.Duration
	host     speed
	calls    [][]time.Duration // [bench]
	results  [][]itemResult    // [bench][fork]
	images   []int             // per bench
	elapsed  time.Duration
	failures int
}

// runWindow classifies round after round — one batch of batchSize images
// per benchmark, Workers = nproc — until the window has elapsed and at
// least minRounds rounds are done. Image k of a benchmark is pool image
// k mod poolSize with spike stream ForkSeed(k), so a replay of the window
// sees the same inputs in the same order.
func runWindow(bs []*offlineBench, o opts, length time.Duration, tr *tracer) window {
	w := window{calls: make([][]time.Duration, len(bs)), results: make([][]itemResult, len(bs)), images: make([]int, len(bs))}
	base := snn.NewPoissonEncoder(maxProb, o.seed)
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < length; r++ {
		rs := time.Now()
		for bi, ob := range bs {
			first := r * batchSize
			ins := make([]tensor.Vec, batchSize)
			for k := range ins {
				ins[k] = ob.pool[(first+k)%len(ob.pool)]
			}
			enc := func(i int) snn.Encoder { return base.ForkSeed(first + i) }
			h := tr.begin("sim."+ob.name+".classify_each", int64(r), -1)
			cs := time.Now()
			ress, reps, err := ob.chip.ClassifyEach(ins, enc, sim.Options{Workers: o.workers})
			w.calls[bi] = append(w.calls[bi], time.Since(cs))
			tr.end(h)
			w.images[bi] += batchSize
			if err != nil {
				w.failures += batchSize
				w.results[bi] = append(w.results[bi], make([]itemResult, batchSize)...)
				continue
			}
			for i := range ress {
				it, err := chipItem(ress[i], reps[i])
				if err != nil {
					w.failures++
				}
				w.results[bi] = append(w.results[bi], it)
			}
		}
		w.rounds = append(w.rounds, time.Since(rs))
		w.host.sample(o.workers, w.rounds[r])
	}
	w.elapsed = time.Since(start)
	return w
}

// imagesPerSec is the median over rounds of images per second, at
// reference host speed or, raw, per wall second.
func (w window) imagesPerSec(benches int, raw bool) float64 {
	xs := make([]float64, len(w.rounds))
	for i, d := range w.rounds {
		xs[i] = float64(benches*batchSize) / d.Seconds()
	}
	if raw {
		return quantile(xs, 0.5)
	}
	return quantile(xs, 0.5) / w.host.factor()
}

// callMs is the median ClassifyEach call of each network in ms, at
// reference host speed or raw, averaged geometrically over the networks
// (their calls cost differently).
func (w window) callMs(raw bool) float64 {
	logSum := 0.0
	for _, cs := range w.calls {
		logSum += math.Log(durQuantile(cs, 0.5, "ms"))
	}
	if raw {
		return math.Exp(logSum / float64(len(w.calls)))
	}
	return math.Exp(logSum/float64(len(w.calls))) * w.host.factor()
}

// digest hashes every prediction, energy and cycle count of the first
// rounds rounds.
func (w window) digest(rounds int) uint64 {
	h := fnv.New64a()
	var buf []byte
	for bi := range w.results {
		for _, it := range w.results[bi][:rounds*batchSize] {
			buf = strconv.AppendInt(buf[:0], int64(it.pred), 10)
			buf = strconv.AppendUint(append(buf, ' '), math.Float64bits(it.energy), 16)
			buf = strconv.AppendInt(append(buf, ' '), int64(it.cycles), 10)
			h.Write(append(buf, '\n'))
		}
	}
	return h.Sum64()
}

// runOffline measures the closed loop over the named networks. A traced run
// splits its window into an untraced and a traced half and decomposes
// tracedImages images per network layer by layer.
func runOffline(o opts, names []string, tracedImages int) (*outcome, error) {
	out := &outcome{vals: values{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	pools := map[string][]tensor.Vec{}
	var bs []*offlineBench
	var reps []setupTimes
	var host speed
	for moreSetups(reps) {
		bs = nil
		runtime.GC()
		var st setupTimes
		var err error
		if bs, st, err = setupOffline(names, o, tr, len(reps), pools); err != nil {
			return nil, err
		}
		reps = append(reps, st)
		host.sample(o.workers, st.total())
	}
	setupMetrics(out.vals, reps, host, "bench.build", "mapping.map", "core.new")

	length := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		length /= 2
	}
	w := runWindow(bs, o, length, nil)
	out.attempted += sum(w.images)
	out.failedOps += w.failures
	reportWindow(out.vals, w, len(bs))

	var tw window
	if o.trace {
		tw = runWindow(bs, o, length, tr)
		out.attempted += sum(tw.images)
		out.failedOps += tw.failures
		common := min(len(w.rounds), len(tw.rounds))
		out.checks.expect(w.digest(common) == tw.digest(common),
			"digest of %d rounds differs between the timed and the traced run", common)
		out.vals.set("trace.overhead_share", w.imagesPerSec(len(bs), false)/tw.imagesPerSec(len(bs), false)-1, len(tw.rounds))
	}

	// The decomposition pass: a traced run replays images of round 0 through
	// the layers one call at a time; untraced runs check one image per
	// benchmark.
	perBench := 1
	if o.trace {
		perBench = tracedImages
	}
	base := snn.NewPoissonEncoder(maxProb, o.seed)
	for bi, ob := range bs {
		out.attempted += perBench
		if err := decompose(ob.name, ob.chip, ob.pool, base, perBench, tr, &out.checks, out.vals, w.results[bi]); err != nil {
			return nil, err
		}
	}
	if o.trace {
		spans := tr.finish()
		residualShare(out.vals, spans, names)
		parallelEff(out.vals, bs, tw, o.workers)
		if err := writeSpans(traceFile(o), spans); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.vals.set("rss_peak_mb", rss, 1)
	return out, nil
}

func traceFile(o opts) string {
	return filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// reportWindow sets the offline end-to-end metrics from an untraced window.
func reportWindow(v values, w window, benches int) {
	v.set("images_per_s", w.imagesPerSec(benches, false), len(w.rounds))
	v.set("raw.images_per_s", w.imagesPerSec(benches, true), len(w.rounds))
	var pooled []time.Duration
	for _, cs := range w.calls {
		pooled = append(pooled, cs...)
	}
	v.set("latency_ms_p50", w.callMs(false), len(pooled))
	v.set("raw.latency_ms_p50", w.callMs(true), len(pooled))
	v.set("sim.call_ms_p99", durQuantile(pooled, 0.99, "ms"), len(pooled))
	v.set("host.ref_ms", w.host.medianMs(), len(w.host.ref))
	var energy, lat []float64
	for bi := range w.results {
		for _, it := range w.results[bi][:minRounds*batchSize] {
			energy = append(energy, it.energy*1e6)
			lat = append(lat, it.latency*1e6)
		}
	}
	v.set("model_uj_per_image", mean(energy), len(energy))
	v.set("model_us_per_image", mean(lat), len(lat))
}

// parallelEff is serial classify time over (wall x workers) for the traced
// window, with the serial per-image time from the decomposition pass.
func parallelEff(v values, bs []*offlineBench, tw window, workers int) {
	var serial float64
	for bi, ob := range bs {
		m, ok := v["core."+ob.name+".classify_us"]
		if !ok {
			return
		}
		serial += m.value * 1e-6 * float64(tw.images[bi])
	}
	v.set("sim.parallel_eff", serial/(tw.elapsed.Seconds()*float64(workers)), sum(tw.images))
}

// capture copies every timestep's input and layer spike vectors so the
// raster can be replayed through accountants.
type capture struct {
	in  []*bitvec.Bits   // [step]
	out [][]*bitvec.Bits // [step][layer]
}

func newCapture(net *snn.Network) *capture {
	c := &capture{in: make([]*bitvec.Bits, steps), out: make([][]*bitvec.Bits, steps)}
	for t := range c.in {
		c.in[t] = bitvec.New(net.Input.Size())
		c.out[t] = make([]*bitvec.Bits, len(net.Layers))
		for l, layer := range net.Layers {
			c.out[t][l] = bitvec.New(layer.OutSize())
		}
	}
	return c
}

func (c *capture) ObserveStep(t int, input *bitvec.Bits, layers []*bitvec.Bits) {
	c.in[t].CopyFrom(input)
	for l, b := range layers {
		c.out[t][l].CopyFrom(b)
	}
}

// replay feeds layers [lo, hi) of the captured raster to an accountant,
// with layer lo-1's spikes (or the input's) as the range's input.
func (c *capture) replay(a *core.Accountant, lo, hi int) {
	for t := range c.in {
		input := c.in[t]
		if lo > 0 {
			input = c.out[t][lo-1]
		}
		a.ObserveStep(t, input, c.out[t][lo:hi])
	}
}

// decompose classifies the first n images of round 0 serially, one layer
// call at a time — chip.Classify, snn integration alone, a raster capture,
// the accounting replay over all layers and over each layer alone — and
// checks that the pieces agree with the whole and with the timed run. With
// a tracer it reports the per-layer times and counts; every call is made
// once untraced first, so the traced calls find warm state.
func decompose(name string, chip *core.Chip, pool []tensor.Vec, base *snn.PoissonEncoder, n int, tr *tracer, checks *checker, v values, timedRun []itemResult) error {
	net := chip.Network()
	layers := len(net.Layers)
	st := snn.NewState(net)
	full, err := chip.NewAccountant(0, layers)
	if err != nil {
		return err
	}
	per := make([]*core.Accountant, layers)
	for l := range per {
		if per[l], err = chip.NewAccountant(l, l+1); err != nil {
			return err
		}
	}
	rast := newCapture(net)
	spikes := make([]float64, layers)
	cycles := make([]float64, layers)
	for k := -1; k < n; k++ {
		t := tr
		if k < 0 {
			t = nil // warm pass
		}
		fork := max(k, 0)
		in := pool[fork%len(pool)]
		img := t.begin("image."+name, int64(fork), -1)
		h := t.begin("core."+name+".classify", int64(fork), img)
		res, srep := chip.Classify(in, base.ForkSeed(fork))
		t.end(h)
		h = t.begin("snn."+name+".integrate", int64(fork), img)
		run := st.RunBlocked(in, base.ForkSeed(fork), steps, nil)
		t.end(h)
		pred := run.Prediction
		h = t.begin("snn."+name+".capture", int64(fork), img)
		st.RunBlocked(in, base.ForkSeed(fork), steps, rast)
		t.end(h)
		h = t.begin("core."+name+".account", int64(fork), img)
		full.Reset()
		rast.replay(full, 0, layers)
		fres, frep := full.Report(pred, steps)
		t.end(h)
		lreps := make([]core.Report, layers)
		for l := range per {
			h = t.begin("core."+name+".L"+strconv.Itoa(l)+".account", int64(fork), img)
			per[l].Reset()
			rast.replay(per[l], l, l+1)
			_, lreps[l] = per[l].Report(pred, steps)
			t.end(h)
		}
		t.end(img)
		if k < 0 {
			continue
		}

		chipRep, ok := srep.Detail.(core.Report)
		if !ok {
			return fmt.Errorf("chip report detail is %T, want core.Report", srep.Detail)
		}
		checks.expect(srep.Predicted == pred, "%s image %d: chip predicts %d, snn predicts %d", name, fork, srep.Predicted, pred)
		checks.expect(fres.Energy == res.Energy && frep.Energy == chipRep.Energy && frep.Counts.Cycles == chipRep.Counts.Cycles,
			"%s image %d: Accountant(0,%d) replay differs from chip.Classify", name, fork, layers)
		energies := make([]perf.RESPARCEnergy, layers)
		cyc := 0
		for l, r := range lreps {
			energies[l] = r.Energy
			cyc += r.Counts.Cycles
		}
		checks.expect(perf.SumRESPARC(energies) == chipRep.Energy && cyc == chipRep.Counts.Cycles,
			"%s image %d: per-layer replays do not sum to chip.Classify", name, fork)
		if fork < len(timedRun) {
			got := itemResult{srep.Predicted, res.Energy, res.Latency, chipRep.Counts.Cycles}
			checks.expect(got == timedRun[fork], "%s image %d: serial classify %+v differs from the timed run's %+v", name, fork, got, timedRun[fork])
		}
		for l := range spikes {
			c := 0
			for step := range rast.out {
				c += rast.out[step][l].Count()
			}
			spikes[l] += float64(c) / steps / float64(n)
			cycles[l] += float64(chipRep.LayerCycles[l]) / float64(n)
		}
	}
	if tr == nil {
		return nil
	}
	for l := range spikes {
		p := name + ".L" + strconv.Itoa(l)
		v.set("snn."+p+".spikes_per_step", spikes[l], n)
		v.set("core."+p+".model_cycles", cycles[l], n)
	}
	return nil
}

// residualShare derives the per-layer times from the decomposition spans
// and the share of classify time that integration plus accounting leave
// unexplained.
func residualShare(v values, spans []span, names []string) {
	self := selfByName(spans)
	var classify, parts time.Duration
	for _, name := range names {
		c := self["core."+name+".classify"]
		in := self["snn."+name+".integrate"]
		ac := self["core."+name+".account"]
		v.set("core."+name+".classify_us", durIn(meanDur(c), "us"), len(c))
		v.set("snn."+name+".integrate_us", durIn(meanDur(in), "us"), len(in))
		v.set("core."+name+".account_us", durIn(meanDur(ac), "us"), len(ac))
		for l := 0; l < layerCount(name); l++ {
			key := "core." + name + ".L" + strconv.Itoa(l) + ".account"
			v.set(key+"_us", durIn(meanDur(self[key]), "us"), len(self[key]))
		}
		for _, d := range c {
			classify += d
		}
		for _, d := range in {
			parts += d
		}
		for _, d := range ac {
			parts += d
		}
	}
	if classify > 0 {
		v.set("trace.residual_share", float64(classify-parts)/float64(classify), len(names))
	}
}
