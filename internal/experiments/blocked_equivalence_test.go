package experiments

import (
	"reflect"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/snn"
)

// rasterCapture records every observed timestep as spike-index lists: the
// input raster and each layer's output raster.
type rasterCapture struct {
	input  [][]int32
	layers [][][]int32
}

func (c *rasterCapture) ObserveStep(_ int, input *bitvec.Bits, layers []*bitvec.Bits) {
	c.input = append(c.input, input.AppendSet(nil))
	step := make([][]int32, len(layers))
	for li, l := range layers {
		step[li] = l.AppendSet(nil)
	}
	c.layers = append(c.layers, step)
}

// The blocked layer-major runner must be a pure performance change: on every
// Fig 10 benchmark it must return the same RunResult as the step-major
// reference (State.RunObserved) and hand its observer bit-identical
// per-step rasters. Every architecture accountant is a pure function of that
// raster, so this pins the chip and CMOS numbers of both runners at once
// (TestGoldenDigest in internal/shard pins the chip numbers themselves).
func TestBlockedMatchesSteppedOnFig10Benchmarks(t *testing.T) {
	cfg := testConfig()
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			net, err := b.Build(cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			inputs, err := inputsFor(b, net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			enc := cfg.encoders()
			stepped, blocked := snn.NewState(net), snn.NewState(net)
			for i, in := range inputs {
				var sCap, bCap rasterCapture
				sr := stepped.RunObserved(in, enc(i), cfg.Steps, &sCap)
				br := blocked.RunBlocked(in, enc(i), cfg.Steps, &bCap)
				if !reflect.DeepEqual(sr, br) {
					t.Fatalf("image %d: RunResult diverges:\nstepped %+v\nblocked %+v", i, sr, br)
				}
				if len(sCap.input) != cfg.Steps || len(bCap.input) != cfg.Steps {
					t.Fatalf("image %d: observed %d/%d steps, want %d", i, len(sCap.input), len(bCap.input), cfg.Steps)
				}
				if !reflect.DeepEqual(sCap, bCap) {
					t.Fatalf("image %d: per-step rasters diverge between the stepped and blocked runners", i)
				}
			}
		})
	}
}
