package shard

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/sim"
)

// goldenDigest pins, per Fig 10 benchmark (built at seed 1, 16 steps, two
// dataset images, encoder seed 7), a SHA-256 prefix over everything the
// accounting produces: predictions, result energy/latency bits, per-layer
// energy bits, serial event counters, cycle breakdown and per-layer
// cycles/spikes, the single-chip pipelined makespan and bus wait, and for
// the x2/x4 pipelines the serial link accounting plus the global makespan,
// bus wait and per-hop link wait. A behaviour change anywhere in the chip
// model, the link model or the pipeline simulation surfaces as one digest
// mismatch per affected benchmark.
var goldenDigest = map[string]string{
	"mnist-mlp": "fc84d987f400b767",
	"svhn-mlp":  "5b65c270fd48ba66",
	"cifar-mlp": "95504b9bff8a3545",
	"mnist-cnn": "2d527d9c4a69e44e",
	"svhn-cnn":  "229c145e438b6391",
	"cifar-cnn": "61f3c21476db03af",
}

func digestFloat(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(h, "%x ", math.Float64bits(v))
	}
}

func digestChip(h hash.Hash, rep core.Report) {
	fmt.Fprintf(h, "pred=%d counts=%+v breakdown=%+v bus=%d layers=%v spikes=%v\n",
		rep.Predicted, rep.Counts, rep.Breakdown, rep.BusCycles, rep.LayerCycles, rep.LayerSpikes)
	for _, le := range rep.LayerEnergies {
		digestFloat(h, le.Neuron, le.Crossbar, le.Peripherals)
	}
	digestFloat(h, rep.Latency)
	fmt.Fprintln(h)
}

// checkSerial asserts the serial cycle identity of one (full-chip or
// per-range) report: Counts.Cycles is the phase breakdown's total, the sum
// of the per-layer cycles, and the sum of every recorded stage duration.
func checkSerial(t *testing.T, label string, rep core.Report) {
	t.Helper()
	sumLayers := 0
	for _, c := range rep.LayerCycles {
		sumLayers += c
	}
	sumStages := 0
	for _, row := range rep.Stages {
		for _, d := range row {
			sumStages += int(d.Sync) + int(d.Bus) + int(d.Local)
		}
	}
	if c := rep.Counts.Cycles; c != rep.Breakdown.Total() || c != sumLayers || c != sumStages {
		t.Fatalf("%s: Cycles %d, Breakdown.Total %d, sum LayerCycles %d, sum stage durations %d",
			label, c, rep.Breakdown.Total(), sumLayers, sumStages)
	}
}

func TestGoldenDigest(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			chip := chipFor(t, b)
			inputs := benchInputs(t, b, chip.Net, 2)
			h := sha256.New()

			ress, reps, err := chip.ClassifyEach(inputs, factoryFor(7), sim.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := range inputs {
				rep := reps[i].Detail.(core.Report)
				checkSerial(t, fmt.Sprintf("chip image %d", i), rep)
				ps := rep.Pipelined()
				makespan, busWait := ps.Makespan, ps.BusWait
				if makespan > int64(rep.Counts.Cycles) {
					t.Fatalf("image %d: pipelined makespan %d above serial %d", i, makespan, rep.Counts.Cycles)
				}
				digestFloat(h, ress[i].Energy, ress[i].Latency)
				digestChip(h, rep)
				fmt.Fprintf(h, "makespan=%d buswait=%d\n", makespan, busWait)
			}

			for _, n := range []int{2, 4} {
				multi, err := New(chip, Config{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				sRess, sReps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range inputs {
					sd := sReps[i].Detail.(Report)
					for s, part := range sd.Shards {
						checkSerial(t, fmt.Sprintf("x%d image %d shard %d", n, i, s), part)
					}
					ps := multi.Pipeline(sd)
					makespan, busWait, linkWait := ps.Makespan, ps.BusWait, ps.LinkWait
					fmt.Fprintf(h, "x%d ranges=%v\n", n, sd.Ranges)
					digestFloat(h, sRess[i].Energy, sRess[i].Latency, sd.Interval)
					digestChip(h, sd.Chip)
					for _, hop := range sd.Hops {
						fmt.Fprintf(h, "hop sent=%d suppressed=%d cycles=%d ", hop.FlitsSent, hop.FlitsSuppressed, hop.Cycles)
						digestFloat(h, hop.EnergyJ)
					}
					fmt.Fprintf(h, "makespan=%d buswait=%d linkwait=%v\n", makespan, busWait, linkWait)
				}
			}

			if got, want := fmt.Sprintf("%x", h.Sum(nil))[:16], goldenDigest[b.Name]; got != want {
				t.Errorf("%s: digest %s, want %s", b.Name, got, want)
			}
		})
	}
}
