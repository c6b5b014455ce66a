package snn

import (
	"fmt"

	"resparc/internal/parallel"
	"resparc/internal/tensor"
)

// EncoderFactory builds a deterministic per-sample encoder — typically
// baseEncoder.ForkSeed(i) — so every image's spike stream depends only on
// its index, never on worker scheduling.
type EncoderFactory func(sample int) Encoder

// Options select how a batch run executes. The zero value is the default:
// the blocked layer-major runner (bit-identical to the step-major reference,
// measurably faster — see blocked.go) with DefaultBlockSize, one worker per
// CPU.
type Options struct {
	// Workers is the worker-pool size (<= 0 selects one per CPU). Results
	// are bit-identical for any value; Workers: 1 is the serial reference.
	Workers int
	// Stepped forces the step-major reference runner (RunObserved's loop
	// nest) instead of the blocked layer-major one.
	Stepped bool
	// BlockSize overrides the temporal block length of the blocked runner
	// (<= 0 selects DefaultBlockSize). Ignored when Stepped is set.
	BlockSize int
	// Batch, when > 1, evaluates contiguous groups of up to Batch images
	// batch-major: one BatchState integrates the whole group per layer
	// visit, streaming each layer's weights once per group instead of once
	// per image. Per-image results are bit-identical to Batch <= 1 for any
	// group size (see BatchState). Ignored when Stepped is set.
	Batch int
}

// RunBatch classifies every input across a worker pool and returns the
// per-image RunResults in input order. Each worker owns one State (reused
// across its images; each run resets it) and each image gets its own
// encoder from enc, so the results are bit-identical for any worker count:
// Options{Workers: 1} is the serial reference and any other pool size must
// match it exactly.
func RunBatch(net *Network, inputs []tensor.Vec, enc EncoderFactory, steps int, opt Options) ([]RunResult, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("snn: empty batch")
	}
	if steps < 1 {
		return nil, fmt.Errorf("snn: steps %d", steps)
	}
	if opt.Batch > 1 && !opt.Stepped {
		return runBatchMajor(net, inputs, enc, steps, opt)
	}
	workers := parallel.Clamp(opt.Workers, len(inputs))
	runOne := func(st *State, i int) RunResult {
		if opt.Stepped {
			return st.Run(inputs[i], enc(i), steps)
		}
		return st.RunBlockedK(inputs[i], enc(i), steps, opt.BlockSize, nil)
	}
	results := make([]RunResult, len(inputs))
	if workers == 1 {
		// Serial fast path: one State on the calling goroutine, no worker
		// pool or per-worker state fan-out.
		st := NewState(net)
		for i := range inputs {
			results[i] = runOne(st, i).Clone()
		}
		return results, nil
	}
	states := make([]*State, workers)
	for w := range states {
		states[w] = NewState(net)
	}
	parallel.ForEach(len(inputs), workers, func(worker, i int) {
		// States are reused across a worker's share, so detach the result
		// from the State scratch before the next image overwrites it.
		results[i] = runOne(states[worker], i).Clone()
	})
	return results, nil
}

// runBatchMajor is the Options.Batch > 1 path of RunBatch: inputs are cut
// into contiguous groups of up to opt.Batch images and each group runs
// batch-major on one BatchState. Grouping never changes per-image results —
// image i's outcome depends only on (inputs[i], enc(i)) — so any
// (Batch, Workers) combination is bit-identical to the per-image path.
func runBatchMajor(net *Network, inputs []tensor.Vec, enc EncoderFactory, steps int, opt Options) ([]RunResult, error) {
	b := opt.Batch
	if b > len(inputs) {
		// Never size state for images that don't exist: the group rasters and
		// potential matrices scale with the state's B, and an oversized state
		// costs cache footprint for no extra parallelism.
		b = len(inputs)
	}
	groups := (len(inputs) + b - 1) / b
	workers := parallel.Clamp(opt.Workers, groups)
	results := make([]RunResult, len(inputs))
	run := func(bst *BatchState, encs []Encoder, g int) {
		lo := g * b
		hi := lo + b
		if hi > len(inputs) {
			hi = len(inputs)
		}
		encs = encs[:0]
		for i := lo; i < hi; i++ {
			encs = append(encs, enc(i))
		}
		rs := bst.RunBlocked(inputs[lo:hi], encs, steps, opt.BlockSize, nil)
		for i, r := range rs {
			results[lo+i] = r.Clone()
		}
	}
	if workers == 1 {
		bst := NewBatchState(net, b)
		encs := make([]Encoder, 0, b)
		for g := 0; g < groups; g++ {
			run(bst, encs, g)
		}
		return results, nil
	}
	states := make([]*BatchState, workers)
	encbufs := make([][]Encoder, workers)
	for w := range states {
		states[w] = NewBatchState(net, b)
		encbufs[w] = make([]Encoder, 0, b)
	}
	parallel.ForEach(groups, workers, func(worker, g int) {
		run(states[worker], encbufs[worker], g)
	})
	return results, nil
}

// EvaluateBatch classifies the inputs in parallel and returns accuracy
// against the labels. It is the worker-pool counterpart of Evaluate and is
// bit-identical to it when enc forks the same per-sample streams.
func EvaluateBatch(net *Network, inputs []tensor.Vec, labels []int, enc EncoderFactory, steps, workers int) (float64, error) {
	if len(inputs) != len(labels) {
		return 0, fmt.Errorf("snn: %d inputs vs %d labels", len(inputs), len(labels))
	}
	results, err := RunBatch(net, inputs, enc, steps, Options{Workers: workers})
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, r := range results {
		if r.Prediction == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(results)), nil
}
