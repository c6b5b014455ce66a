package experiments

import (
	"fmt"
	"math/rand"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/mapping"
	"resparc/internal/neurocell"
	"resparc/internal/perf"
	"resparc/internal/report"
	"resparc/internal/shard"
	"resparc/internal/sim"
	"resparc/internal/tensor"
)

// eventShardCounts are the chip counts the -fig event shard section sweeps.
var eventShardCounts = []int{1, 2, 4}

// eventChip builds one benchmark's chip under the experiment configuration.
func eventChip(cfg Config, b bench.Benchmark) (*core.Chip, []tensor.Vec, error) {
	net, err := b.Build(cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	m, err := mapping.Map(net, cfg.mapConfig(cfg.MCASize))
	if err != nil {
		return nil, nil, err
	}
	copt := core.DefaultOptions()
	copt.Params = cfg.Params
	copt.Steps = cfg.Steps
	chip, err := core.New(net, m, copt)
	if err != nil {
		return nil, nil, err
	}
	inputs, err := inputsFor(b, net, cfg)
	if err != nil {
		return nil, nil, err
	}
	return chip, inputs, nil
}

// FigEvent compares the two compositions of the chip's recorded stage grid:
// per benchmark the modeled classification cycles as the serial sum of
// every stage (Counts.Cycles, the rows labelled "stepped") and as the
// pipelined Fig 7(a) makespan with shared-bus contention (the "event" rows),
// the x{1,2,4} sharded makespans with link backpressure, and the NoC
// fabric's congestion against the contention-free bound. Every row is a
// pure function of the seed, so merging them header-preservingly keeps
// BENCH_RESULTS.json byte-identical across same-seed reruns.
func FigEvent(cfg Config) ([]perf.BenchEntry, *report.Table, error) {
	var entries []perf.BenchEntry
	t := report.NewTable("Event-driven engine (serial vs pipelined)",
		"Row", "Serial", "Pipelined", "Ratio", "Wait", "Spikes/step")

	for _, b := range bench.All() {
		chip, inputs, err := eventChip(cfg, b)
		if err != nil {
			return nil, nil, fmtErr("event", err)
		}
		n := len(inputs)
		ncc := chip.Opt.Params.NCCycle()

		// Modeled latency: each classification's stage grid summed serially
		// and composed as the pipeline. Latencies are averaged in image
		// order, as ClassifyBatch averages them.
		ress, sreps, err := chip.ClassifyEach(inputs, cfg.encoders(), sim.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, nil, fmtErr("event", err)
		}
		var cycles, wait [2]int64
		var lat [2]float64
		chipReps := make([]core.Report, n)
		for i, sr := range sreps {
			rep := sr.Detail.(core.Report)
			chipReps[i] = rep
			ps := rep.Pipelined()
			cycles[0] += int64(rep.Counts.Cycles)
			cycles[1] += ps.Makespan
			wait[1] += ps.BusWait
			lat[0] += ress[i].Latency
			lat[1] += float64(ps.Makespan) * ncc
		}
		spikes := spikesPerStep(chipReps, chip.Opt.Steps)
		for mi, label := range []string{"stepped", "event"} {
			cycles[mi] /= int64(n)
			entries = append(entries, perf.BenchEntry{
				Name:          fmt.Sprintf("event/latency/%s/%s", b.Name, label),
				NsPerOp:       lat[mi] / float64(n) * 1e9,
				Iterations:    n,
				ModelCycles:   cycles[mi],
				WaitCycles:    int64(float64(wait[mi]) / float64(n)),
				SpikesPerStep: spikes,
			})
		}
		t.Add("latency/"+b.Name+" (cycles)",
			fmt.Sprintf("%d", cycles[0]), fmt.Sprintf("%d", cycles[1]),
			fmt.Sprintf("%.2fx", float64(cycles[0])/float64(cycles[1])),
			fmt.Sprintf("%.0f", float64(wait[1])/float64(n)), fmt.Sprintf("%.1f", spikes))

		// Sharded pipeline: global makespan with serialized, credit-limited
		// inter-chip links; the wait column records the link backpressure.
		for _, sn := range eventShardCounts {
			multi, err := shard.New(chip, shard.Config{Shards: sn})
			if err != nil {
				return nil, nil, fmtErr("event", err)
			}
			_, sreps, err := multi.ClassifyEach(inputs, cfg.encoders(), sim.Options{Workers: cfg.Workers})
			if err != nil {
				return nil, nil, fmtErr("event", err)
			}
			var mk, lw int64
			var latency float64
			for i, sr := range sreps {
				rep := sr.Detail.(shard.Report)
				chipReps[i] = rep.Chip
				ps := multi.Pipeline(rep)
				mk += ps.Makespan
				for _, w := range ps.LinkWait {
					lw += w
				}
				latency += float64(ps.Makespan) * ncc
			}
			mk /= int64(n)
			lw /= int64(n)
			chips := len(multi.Ranges())
			entries = append(entries, perf.BenchEntry{
				Name:          fmt.Sprintf("event/shard/%s/x%d", b.Name, chips),
				NsPerOp:       latency / float64(n) * 1e9,
				Iterations:    n,
				Workers:       chips,
				ModelCycles:   mk,
				WaitCycles:    lw,
				SpikesPerStep: spikesPerStep(chipReps, chip.Opt.Steps),
			})
			t.Add(fmt.Sprintf("shard/%s/x%d (cycles)", b.Name, chips),
				"", fmt.Sprintf("%d", mk), "", fmt.Sprintf("%d", lw), "")
		}
	}

	// NoC fabric congestion: dim-4 cell, 72 packets per pattern, event
	// engine vs the contention-free bound. The hotspot gap (event > ideal)
	// is the acceptance criterion for real congestion modeling.
	nocEntries, err := eventNoCRows(cfg.Seed, 4, 72, t)
	if err != nil {
		return nil, nil, fmtErr("event", err)
	}
	entries = append(entries, nocEntries...)
	return entries, t, nil
}

// eventNoCRows runs the three traffic patterns on the event-driven fabric
// and records delivery span, queuing and the ideal bound.
func eventNoCRows(seed int64, dim, packets int, t *report.Table) ([]perf.BenchEntry, error) {
	var entries []perf.BenchEntry
	rng := rand.New(rand.NewSource(seed))
	mpes := dim * dim
	for _, pattern := range []string{"neighbor", "random", "hotspot"} {
		tr := make([]neurocell.Transfer, packets)
		for i := range tr {
			switch pattern {
			case "neighbor":
				src := i % mpes
				tr[i] = neurocell.Transfer{SrcMPE: src, DstMPE: (src + 1) % mpes}
			case "random":
				tr[i] = neurocell.Transfer{SrcMPE: rng.Intn(mpes), DstMPE: rng.Intn(mpes)}
			case "hotspot":
				tr[i] = neurocell.Transfer{SrcMPE: i % (mpes - 1), DstMPE: mpes - 1}
			}
		}
		n, err := neurocell.NewSwitchNet(dim)
		if err != nil {
			return nil, err
		}
		st, err := n.SimulateEvent(tr, neurocell.EventOptions{})
		if err != nil {
			return nil, err
		}
		ideal := n.IdealCycles(packets)
		entries = append(entries, perf.BenchEntry{
			Name:        fmt.Sprintf("event/noc/%s", pattern),
			Iterations:  packets,
			ModelCycles: int64(st.Cycles),
			WaitCycles:  int64(st.WaitCycles),
		}, perf.BenchEntry{
			Name:        fmt.Sprintf("event/noc/%s/ideal", pattern),
			Iterations:  packets,
			ModelCycles: int64(ideal),
		})
		t.Add("noc/"+pattern+" (cycles)",
			fmt.Sprintf("%d", ideal), fmt.Sprintf("%d", st.Cycles),
			fmt.Sprintf("%.2fx", float64(st.Cycles)/float64(ideal)),
			fmt.Sprintf("%d", st.WaitCycles), "")
	}
	return entries, nil
}

// spikesPerStep is the batch-average output spikes per timestep of a set of
// chip reports (the perf.Result SpikesPerStep of their batch aggregate).
func spikesPerStep(reps []core.Report, steps int) float64 {
	total := 0
	for _, rep := range reps {
		for _, sp := range rep.LayerSpikes {
			total += sp
		}
	}
	return float64(total) / (float64(len(reps)) * float64(steps))
}
