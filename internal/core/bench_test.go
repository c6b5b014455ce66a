package core

import (
	"math/rand"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/dataset"
	"resparc/internal/device"
	"resparc/internal/mapping"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// BenchmarkClassify measures one full transaction-level classification of a
// 784-512-10 MLP (16 timesteps) on RESPARC.
func BenchmarkClassify(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w1 := tensor.NewMat(512, 784)
	w2 := tensor.NewMat(10, 512)
	for i := range w1.Data {
		w1.Data[i] = rng.NormFloat64() * 0.02
	}
	for i := range w2.Data {
		w2.Data[i] = rng.NormFloat64() * 0.02
	}
	l1, err := snn.NewDense("h", 784, 512, w1, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	l2, err := snn.NewDense("o", 512, 10, w2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	net, err := snn.NewNetwork("bench", tensor.Shape3{H: 28, W: 28, C: 1}, l1, l2)
	if err != nil {
		b.Fatal(err)
	}
	mc := mapping.DefaultConfig()
	mc.Tech = device.PCM
	m, err := mapping.Map(net, mc)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Steps = 16
	chip, err := New(net, m, opt)
	if err != nil {
		b.Fatal(err)
	}
	img := tensor.NewVec(784)
	for i := range img {
		img[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Classify(img, snn.NewPoissonEncoder(0.8, 2))
	}
}

// raster is one classification's captured spike raster: every timestep's
// input vector and layer outputs.
type raster struct {
	in  []*bitvec.Bits   // [step]
	out [][]*bitvec.Bits // [step][layer]
}

func (r *raster) ObserveStep(_ int, input *bitvec.Bits, layers []*bitvec.Bits) {
	r.in = append(r.in, input.Clone())
	outs := make([]*bitvec.Bits, len(layers))
	for l, b := range layers {
		outs[l] = b.Clone()
	}
	r.out = append(r.out, outs)
}

// replay feeds the whole raster to an accountant over every layer.
func (r *raster) replay(a *Accountant) {
	for t := range r.in {
		a.ObserveStep(t, r.in[t], r.out[t])
	}
}

// benchRaster maps the named calibrated Fig 10 benchmark and captures the
// raster of its first synthetic test image over steps timesteps.
func benchRaster(tb testing.TB, name string, steps int) (*Chip, *raster) {
	tb.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := bm.Build(1)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := mapping.Map(net, mapping.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Steps = steps
	chip, err := New(net, m, opt)
	if err != nil {
		tb.Fatal(err)
	}
	set := dataset.Generate(bm.Dataset, 1, 101)
	img, err := bench.PrepareInput(set.Samples[0].Input, set.Shape, net.Input)
	if err != nil {
		tb.Fatal(err)
	}
	r := &raster{}
	snn.NewState(net).RunBlocked(bench.NormalizeIntensity(img), snn.NewPoissonEncoder(bench.EncoderPeak, 1), steps, r)
	return chip, r
}

// BenchmarkAccountConv measures the accounting kernel alone on the conv/pool
// benchmark: one op replays a captured 32-timestep mnist-cnn raster through
// an accountant over all six layers.
func BenchmarkAccountConv(b *testing.B) {
	chip, r := benchRaster(b, "mnist-cnn", 32)
	a, err := chip.NewAccountant(0, len(chip.Net.Layers))
	if err != nil {
		b.Fatal(err)
	}
	r.replay(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		r.replay(a)
	}
}

// A warmed accountant charges a classification without allocating: its
// scratch and stage grid are sized on first use and reused after Reset.
func TestAccountantAllocFree(t *testing.T) {
	chip, r := benchRaster(t, "mnist-cnn", 8)
	a, err := chip.NewAccountant(0, len(chip.Net.Layers))
	if err != nil {
		t.Fatal(err)
	}
	r.replay(a)
	if allocs := testing.AllocsPerRun(5, func() {
		a.Reset()
		r.replay(a)
	}); allocs != 0 {
		t.Fatalf("warmed accountant allocates %.1f times per image", allocs)
	}
}
