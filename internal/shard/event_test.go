package shard

import (
	"reflect"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/sim"
)

// TestShardEventSteppedEquivalence: for every benchmark and N in {1, 2, 4},
// the merged sharded accounting reproduces the single-chip classification
// bit for bit — predictions, energies, per-layer energies and every serial
// counter — and the global event-driven pipeline over the shards' stage
// grids beats the serial chip-plus-link cycles while covering each shard's
// own pipelined makespan. Run with -race: shards classify concurrently.
func TestShardEventSteppedEquivalence(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			chip := chipFor(t, b)
			inputs := benchInputs(t, b, chip.Net, 2)
			refRess, refReps, err := chip.ClassifyEach(inputs, factoryFor(7), sim.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 4} {
				multi, err := New(chip, Config{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				ress, reps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range inputs {
					ref := refReps[i].Detail.(core.Report)
					got := reps[i].Detail.(Report)
					if reps[i].Predicted != refReps[i].Predicted || got.Chip.Predicted != ref.Predicted {
						t.Fatalf("x%d image %d: predicted %d (sharded) vs %d (single chip)",
							n, i, reps[i].Predicted, refReps[i].Predicted)
					}
					if got.Chip.Energy != ref.Energy || !reflect.DeepEqual(got.Chip.LayerEnergies, ref.LayerEnergies) {
						t.Fatalf("x%d image %d: energies diverged: %+v vs %+v", n, i, got.Chip.Energy, ref.Energy)
					}
					if got.Chip.Counts != ref.Counts {
						t.Fatalf("x%d image %d: counters diverged:\nsharded: %+v\nsingle:  %+v", n, i, got.Chip.Counts, ref.Counts)
					}
					if ress[i].Energy < refRess[i].Energy {
						t.Fatalf("x%d image %d: sharded energy %v below single chip %v", n, i, ress[i].Energy, refRess[i].Energy)
					}
					ps := multi.Pipeline(got)
					if ps.Makespan >= int64(got.Chip.Counts.Cycles+got.Link.Cycles) {
						t.Fatalf("x%d image %d: pipelined makespan %d not below serial %d+%d",
							n, i, ps.Makespan, got.Chip.Counts.Cycles, got.Link.Cycles)
					}
					for s, part := range got.Shards {
						if own := part.Pipelined().Makespan; ps.Makespan < own {
							t.Fatalf("x%d image %d: makespan %d below shard %d's own makespan %d",
								n, i, ps.Makespan, s, own)
						}
					}
					if len(ps.LinkWait) != n-1 {
						t.Fatalf("x%d image %d: %d link-wait entries for %d hops", n, i, len(ps.LinkWait), n-1)
					}
				}
			}
		})
	}
}

// TestShardEventMatchesSingleChipEvent: with one shard the global pipeline
// reduces to the single-chip pipeline simulation — makespan, bus wait and
// stage grids must match core's exactly.
func TestShardEventMatchesSingleChipEvent(t *testing.T) {
	b := bench.All()[0]
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 2)
	refRess, refReps, err := chip.ClassifyEach(inputs, factoryFor(7), sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := New(chip, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ress, reps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		ref := refReps[i].Detail.(core.Report)
		got := reps[i].Detail.(Report)
		if got.Chip.Counts != ref.Counts {
			t.Fatalf("image %d: counters diverged\nsharded x1: %+v\nsingle:     %+v", i, got.Chip.Counts, ref.Counts)
		}
		if gp, rp := multi.Pipeline(got), ref.Pipelined(); !reflect.DeepEqual(gp, rp) {
			t.Fatalf("image %d: pipeline %+v vs single-chip %+v", i, gp, rp)
		}
		if ress[i].Latency != refRess[i].Latency || ress[i].Energy != refRess[i].Energy {
			t.Fatalf("image %d: result diverged: %+v vs %+v", i, ress[i], refRess[i])
		}
		if !reflect.DeepEqual(got.Shards[0].Stages, ref.Stages) {
			t.Fatalf("image %d: stage grids diverged", i)
		}
	}
}

// TestShardEventDeterministic: sharded results and their pipeline
// composition are a pure function of the inputs — identical across
// repeated runs — and the pipelined makespan beats the serial
// chip-plus-link cycles.
func TestShardEventDeterministic(t *testing.T) {
	b := bench.All()[0]
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 4)
	multi, err := New(chip, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, aReps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		ad := aReps[i].Detail.(Report)
		if mk := multi.Pipeline(ad).Makespan; mk >= int64(ad.Chip.Counts.Cycles+ad.Link.Cycles) {
			t.Fatalf("image %d: pipelined makespan %d not below serial %d+%d",
				i, mk, ad.Chip.Counts.Cycles, ad.Link.Cycles)
		}
	}
	g, gReps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		if !reflect.DeepEqual(a[i], g[i]) || aReps[i].Predicted != gReps[i].Predicted {
			t.Fatalf("image %d: results vary across runs", i)
		}
		ad := aReps[i].Detail.(Report)
		gd := gReps[i].Detail.(Report)
		if ad.Chip.Counts != gd.Chip.Counts || !reflect.DeepEqual(ad.Hops, gd.Hops) ||
			!reflect.DeepEqual(multi.Pipeline(ad), multi.Pipeline(gd)) {
			t.Fatalf("image %d: accounting varies across runs", i)
		}
	}
}

// TestShardEventBackpressure: squeezing the receive buffer to one raster and
// the channel to one flit per cycle must surface link wait on a real
// boundary — the flow control is live, not decorative.
func TestShardEventBackpressure(t *testing.T) {
	b := bench.All()[0]
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 1)
	linkWait := func(link LinkParams) int64 {
		t.Helper()
		multi, err := New(chip, Config{Shards: 2, Link: link})
		if err != nil {
			t.Fatal(err)
		}
		_, reps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return multi.Pipeline(reps[0].Detail.(Report)).LinkWait[0]
	}
	narrow := DefaultLinkParams(chip.Opt.Params)
	narrow.FlitsPerCycle = 1
	narrow.RecvBuf = 1
	n := linkWait(narrow)
	if n == 0 {
		t.Fatal("narrow link with a one-raster receive buffer shows zero wait")
	}
	// A wide, deeply buffered link must wait strictly less.
	wide := DefaultLinkParams(chip.Opt.Params)
	wide.FlitsPerCycle = 64
	wide.RecvBuf = 64
	if w := linkWait(wide); w >= n {
		t.Fatalf("wide link waits %d >= narrow link %d", w, n)
	}
}
