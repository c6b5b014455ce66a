package experiments

import (
	"fmt"
	"strings"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/mapping"
	"resparc/internal/parallel"
	"resparc/internal/perf"
	"resparc/internal/report"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// PerfSuite measures the evaluation pipeline's hot paths with
// testing.Benchmark and returns machine-readable entries (the content of
// BENCH_RESULTS.json) plus a rendered table. It covers the functional SNN
// evaluator and the full RESPARC chip simulation, each at one worker
// (the serial reference) and at the configured pool size, so the JSON
// records both the single-thread cost and the parallel scaling of
// regenerating the paper's figures. A parallel row is only emitted when the
// clamped pool has at least two workers; otherwise it would be a second
// serial measurement under another name.
func PerfSuite(cfg Config) ([]perf.BenchEntry, *report.Table, error) {
	var entries []perf.BenchEntry

	addEval := func(name string, net *snn.Network, inputs []tensor.Vec, workers int, label string) error {
		enc := cfg.encoders()
		var runErr error
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, err := snn.RunBatch(net, inputs, enc, cfg.Steps, workers); err != nil {
					runErr = err
					tb.FailNow()
				}
			}
		})
		if runErr != nil {
			return runErr
		}
		entries = append(entries, benchEntry(fmt.Sprintf("eval/%s/%s", name, label), res, len(inputs), workers))
		return nil
	}

	for _, name := range []string{"mnist-mlp", "mnist-cnn", "cifar-mlp", "cifar-cnn"} {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		net, err := b.Build(cfg.Seed)
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		inputs, err := inputsFor(b, net, cfg)
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		if err := addEval(name, net, inputs, 1, "serial"); err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		if pool := parallel.Clamp(cfg.Workers, len(inputs)); pool >= 2 && strings.HasPrefix(name, "mnist-") {
			if err := addEval(name, net, inputs, pool, "parallel"); err != nil {
				return nil, nil, fmtErr("perfsuite", err)
			}
		}
	}

	// Full chip simulation (functional sim + event/energy accounting) on the
	// MLP benchmark — the unit of work behind every Fig 11–13 data point.
	b, err := bench.ByName("mnist-mlp")
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	net, err := b.Build(cfg.Seed)
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	m, err := mapping.Map(net, cfg.mapConfig(cfg.MCASize))
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	copt := core.DefaultOptions()
	copt.Params = cfg.Params
	copt.Steps = cfg.Steps
	chip, err := core.New(net, m, copt)
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	inputs, err := inputsFor(b, net, cfg)
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	pools := []int{1}
	if pool := parallel.Clamp(cfg.Workers, len(inputs)); pool >= 2 {
		pools = append(pools, pool)
	}
	for _, workers := range pools {
		label := "serial"
		if workers > 1 {
			label = "parallel"
		}
		var runErr error
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, _, err := chip.ClassifyBatch(inputs, cfg.encoders(), sim.Options{Workers: workers}); err != nil {
					runErr = err
					tb.FailNow()
				}
			}
		})
		if runErr != nil {
			return nil, nil, fmtErr("perfsuite", runErr)
		}
		entries = append(entries, benchEntry("chip/mnist-mlp/"+label, res, len(inputs), workers))
	}

	t := report.NewTable("Evaluation pipeline benchmarks",
		"Benchmark", "Workers", "ns/op", "images/sec", "allocs/op", "B/op")
	for _, e := range entries {
		t.Add(e.Name, fmt.Sprintf("%d", e.Workers), fmt.Sprintf("%.0f", e.NsPerOp),
			fmt.Sprintf("%.1f", e.ImagesPerSec), fmt.Sprintf("%d", e.AllocsPerOp),
			fmt.Sprintf("%d", e.BytesPerOp))
	}
	return entries, t, nil
}

// benchEntry converts a testing.BenchmarkResult (one op = one full batch of
// images) into the JSON form.
func benchEntry(name string, r testing.BenchmarkResult, images, workers int) perf.BenchEntry {
	ns := float64(r.NsPerOp())
	ips := 0.0
	if ns > 0 {
		ips = float64(images) / (ns * 1e-9)
	}
	return perf.BenchEntry{
		Name:         name,
		NsPerOp:      ns,
		ImagesPerSec: ips,
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		Iterations:   r.N,
		Workers:      workers,
	}
}
