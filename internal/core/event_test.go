package core

import (
	"math/rand"
	"reflect"
	"testing"

	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// cloneMapping deep-copies a mapping's placements (the network is shared).
func cloneMapping(m *mapping.Mapping) *mapping.Mapping {
	cp := &mapping.Mapping{Net: m.Net, Cfg: m.Cfg, MCAs: m.MCAs, MPEs: m.MPEs, NCs: m.NCs,
		SpareFirst: m.SpareFirst, Spares: m.Spares}
	for _, lm := range m.Layers {
		lm.MCAs = append([]mapping.MCA(nil), lm.MCAs...)
		cp.Layers = append(cp.Layers, lm)
	}
	return cp
}

// TestRemapRebuildsPlans: remapping a live chip's mapping in place (as the
// serving repair ladder does) must take effect on the next classification —
// predictions, energies, every counter and the stage grid equal those of a
// chip built fresh on a copy of the remapped mapping.
func TestRemapRebuildsPlans(t *testing.T) {
	net := smallMLP(t, 3)
	m := mapped(t, net, 8)
	opt := DefaultOptions()
	opt.Steps = 20
	live, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]tensor.Vec, 4)
	rng := rand.New(rand.NewSource(5))
	for i := range inputs {
		inputs[i] = tensor.NewVec(net.Input.Size())
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()
		}
	}
	factory := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, int64(i)) }
	_, before, err := live.ClassifyEach(inputs, factory, sim.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Move the first MCA of layer 0's first group (its neurons' owner) and
	// one MCA mid-run to spares: ownership and the per-mPE runs both change.
	rep, err := m.RemapFaulty([]mapping.MCAHealth{{Layer: 0, Index: 0, Dead: true}, {Layer: 0, Index: 5, Dead: true}},
		mapping.RemapConfig{SpareMPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 2 {
		t.Fatalf("remap moved %d allocations, want 2", len(rep.Moves))
	}
	fresh, err := New(net, cloneMapping(m), opt)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, got, err := live.ClassifyEach(inputs, factory, sim.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, want, err := fresh.ClassifyEach(inputs, factory, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range inputs {
		g, w := got[i].Detail.(Report), want[i].Detail.(Report)
		if !reflect.DeepEqual(gotRes[i], wantRes[i]) || !reflect.DeepEqual(g, w) {
			t.Fatalf("image %d: remapped live chip diverges from a fresh chip:\nlive:  %+v\nfresh: %+v", i, g.Counts, w.Counts)
		}
		if g.Counts != before[i].Detail.(Report).Counts {
			changed = true
		}
	}
	if !changed {
		t.Fatal("remap changed no counter; the test exercises nothing")
	}
}

// randomIntensity returns a seeded uniform input vector for net.
func randomIntensity(net *snn.Network, seed int64) tensor.Vec {
	v := tensor.NewVec(net.Input.Size())
	rng := rand.New(rand.NewSource(seed))
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// TestEventSteppedBitIdentical: the serial timestep-by-timestep schedule and
// the event-driven layer pipeline are two views of one recorded stage grid.
// A chip built afresh on the same mapping reproduces predictions, energies
// and every counter bit for bit; Counts.Cycles is the serial sum of the
// stage durations; and the pipelined makespan over that grid can only
// overlap stages — it lies between the serial sum and the structural lower
// bound (the busiest layer, or the bus).
func TestEventSteppedBitIdentical(t *testing.T) {
	nets := map[string]*snn.Network{"mlp": smallMLP(t, 1), "cnn": smallCNN(t, 2)}
	for name, net := range nets {
		for _, size := range []int{8, 16, 64} {
			m := mapped(t, net, size)
			opt := DefaultOptions()
			opt.Steps = 25
			intensity := randomIntensity(net, 7)
			var ress []perf.Result
			var reps []Report
			for k := 0; k < 2; k++ {
				chip, err := New(net, m, opt)
				if err != nil {
					t.Fatal(err)
				}
				res, rep := chip.ClassifyDetailed(intensity, snn.NewPoissonEncoder(0.8, 7))
				ress, reps = append(ress, res), append(reps, rep)
			}
			if !reflect.DeepEqual(ress[0], ress[1]) || !reflect.DeepEqual(reps[0], reps[1]) {
				t.Fatalf("%s/%d: two chips on one mapping diverged:\n%+v\n%+v", name, size, reps[0].Counts, reps[1].Counts)
			}
			rep := reps[0]
			if len(rep.Stages) != opt.Steps {
				t.Fatalf("%s/%d: stage grid has %d timesteps, want %d", name, size, len(rep.Stages), opt.Steps)
			}
			sumLayers, sumStages := 0, 0
			for _, c := range rep.LayerCycles {
				sumLayers += c
			}
			for _, row := range rep.Stages {
				for _, d := range row {
					sumStages += int(d.Sync) + int(d.Bus) + int(d.Local)
				}
			}
			if c := rep.Counts.Cycles; c != rep.Breakdown.Total() || c != sumLayers || c != sumStages {
				t.Fatalf("%s/%d: Cycles %d, Breakdown.Total %d, sum LayerCycles %d, sum stage durations %d",
					name, size, c, rep.Breakdown.Total(), sumLayers, sumStages)
			}
			mk := rep.Pipelined().Makespan
			if mk > int64(rep.Counts.Cycles) {
				t.Fatalf("%s/%d: pipelined makespan %d exceeds serial %d", name, size, mk, rep.Counts.Cycles)
			}
			lower := rep.BusCycles
			for _, lc := range rep.LayerCycles {
				if lc > lower {
					lower = lc
				}
			}
			if mk < int64(lower) {
				t.Fatalf("%s/%d: pipelined makespan %d below structural bound %d", name, size, mk, lower)
			}
		}
	}
}

// TestEventEngineViaOptions: the batch runners, driven by sim.Options,
// return per-call ClassifyDetailed's results and reports bit for bit — the
// pipelined makespan over the stage grid included — for any worker count,
// with the sparsity stats filled in.
func TestEventEngineViaOptions(t *testing.T) {
	net := smallMLP(t, 4)
	m := mapped(t, net, 16)
	opt := DefaultOptions()
	opt.Steps = 20
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]tensor.Vec, 6)
	for i := range inputs {
		inputs[i] = randomIntensity(net, int64(9+i))
	}
	factory := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, int64(i)) }

	for _, workers := range []int{1, 3} {
		got, gotReps, err := chip.ClassifyEach(inputs, factory, sim.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range inputs {
			res, rep := chip.ClassifyDetailed(inputs[i], factory(i))
			gd := gotReps[i].Detail.(Report)
			if gotReps[i].Predicted != rep.Predicted || !reflect.DeepEqual(got[i], res) || !reflect.DeepEqual(gd, rep) {
				t.Fatalf("workers=%d image %d: batch runner diverged from ClassifyDetailed:\n%+v\n%+v",
					workers, i, gd.Counts, rep.Counts)
			}
			if !reflect.DeepEqual(gd.Pipelined(), rep.Pipelined()) {
				t.Fatalf("workers=%d image %d: pipelined %+v vs %+v", workers, i, gd.Pipelined(), rep.Pipelined())
			}
			if got[i].SpikesPerStep <= 0 || len(got[i].LayerOccupancy) != len(net.Layers) {
				t.Fatalf("workers=%d image %d: sparsity stats missing: %+v", workers, i, got[i])
			}
		}
	}
	// Determinism across worker counts.
	a, aReps, err := chip.ClassifyEach(inputs, factory, sim.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, bReps, err := chip.ClassifyEach(inputs, factory, sim.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		if !reflect.DeepEqual(a[i], b[i]) || !reflect.DeepEqual(aReps[i].Detail, bReps[i].Detail) {
			t.Fatalf("image %d: results vary across worker counts", i)
		}
	}
}

// TestSparsityStats: the spike-sparsity stats are internally consistent
// with the per-layer spike counts.
func TestSparsityStats(t *testing.T) {
	net := smallMLP(t, 5)
	m := mapped(t, net, 16)
	opt := DefaultOptions()
	opt.Steps = 30
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	intensity := tensor.NewVec(net.Input.Size())
	rng := rand.New(rand.NewSource(6))
	for i := range intensity {
		intensity[i] = rng.Float64()
	}
	res, rep := chip.ClassifyDetailed(intensity, snn.NewPoissonEncoder(0.8, 2))
	var spikes int
	for _, s := range rep.LayerSpikes {
		spikes += s
	}
	want := float64(spikes) / float64(opt.Steps)
	if res.SpikesPerStep != want {
		t.Fatalf("SpikesPerStep = %v, want %v", res.SpikesPerStep, want)
	}
	if len(res.LayerOccupancy) != len(net.Layers) {
		t.Fatalf("LayerOccupancy has %d entries, want %d", len(res.LayerOccupancy), len(net.Layers))
	}
	for j, occ := range res.LayerOccupancy {
		wantOcc := float64(rep.LayerSpikes[j]) / float64(opt.Steps*net.Layers[j].OutSize())
		if occ != wantOcc {
			t.Fatalf("layer %d occupancy = %v, want %v", j, occ, wantOcc)
		}
		if occ < 0 || occ > 1 {
			t.Fatalf("layer %d occupancy %v out of [0,1]", j, occ)
		}
	}
}
