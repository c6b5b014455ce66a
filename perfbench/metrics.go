package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one catalog entry. Kind says what the number is: "wall"
// (host wall-clock; end-to-end ones calibrated to reference host speed, see
// calib.go), "memory" (resident set), "sim" (modeled chip time or energy, never wall-clock),
// "count" (a work count) or "share" (a ratio).
type metricDef struct {
	Name, Unit, Kind string
}

// endToEnd is what a user of the simulator or the serving stack sees. Every
// workload reports every entry (see README.md for what each means there).
// Their directions and bounds are in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "wall"},
	{"rss_peak_mb", "MB", "memory"},
	{"images_per_s", "1/s", "wall"},
	{"latency_ms_p50", "ms", "wall"},
	{"model_uj_per_image", "uJ", "sim"},
	{"model_us_per_image", "us", "sim"},
}

// benchLayers fixes the layer count of every benchmark network a workload
// runs, so the per-layer catalog is the same on every workload. A run
// fails if a built network disagrees.
var benchLayers = []struct {
	name   string
	layers int
}{
	{"mnist-mlp", 4}, {"svhn-mlp", 4}, {"cifar-mlp", 5}, {"mnist-cnn", 6}, {"cifar-cnn", 6},
}

// perLayer is the traced run's catalog. A workload that does not exercise a
// layer reports 0 for it (offline workloads run no balancer, serve-mix maps
// inside the registry, each workload runs only its own benchmarks).
func perLayer() []metricDef {
	defs := []metricDef{
		{"bench.build_ms", "ms", "wall"},
		{"mapping.map_ms", "ms", "wall"},
		{"core.new_ms", "ms", "wall"},
		{"mapping.plan_ms", "ms", "wall"},
		{"serve.registry_ms", "ms", "wall"},
		{"mapping.plan_objective", "score", "sim"},
	}
	for _, b := range benchLayers {
		defs = append(defs,
			metricDef{"core." + b.name + ".classify_us", "us", "wall"},
			metricDef{"snn." + b.name + ".integrate_us", "us", "wall"},
			metricDef{"core." + b.name + ".account_us", "us", "wall"},
		)
		for i := 0; i < b.layers; i++ {
			l := "L" + strconv.Itoa(i)
			defs = append(defs,
				metricDef{"snn." + b.name + "." + l + ".spikes_per_step", "count", "count"},
				metricDef{"core." + b.name + "." + l + ".account_us", "us", "wall"},
				metricDef{"core." + b.name + "." + l + ".model_cycles", "cycles", "sim"},
			)
		}
	}
	return append(defs,
		metricDef{"sim.parallel_eff", "share", "share"},
		metricDef{"sim.call_ms_p99", "ms", "wall"},
		metricDef{"client.closed.latency_ms_p99", "ms", "wall"},
		metricDef{"client.resparc.latency_ms_p50", "ms", "wall"},
		metricDef{"client.cmos.latency_ms_p50", "ms", "wall"},
		metricDef{"client.resparc-x4.latency_ms_p50", "ms", "wall"},
		metricDef{"client.light.latency_ms_p50", "ms", "wall"},
		metricDef{"client.light.latency_ms_p99", "ms", "wall"},
		metricDef{"client.peak.latency_ms_p50", "ms", "wall"},
		metricDef{"client.peak.latency_ms_p99", "ms", "wall"},
		metricDef{"client.peak.slo_share", "share", "share"},
		metricDef{"serve.queue_ms_p50", "ms", "wall"},
		metricDef{"serve.queue_ms_p99", "ms", "wall"},
		metricDef{"serve.batch_size_mean", "count", "count"},
		metricDef{"serve.handler_ms_p50", "ms", "wall"},
		metricDef{"serve.handler_ms_p99", "ms", "wall"},
		metricDef{"lb.self_ms_mean", "ms", "wall"},
		metricDef{"lb.shed_share", "share", "share"},
		metricDef{"lb.retry_share", "share", "share"},
		metricDef{"serve.reject_share", "share", "share"},
		metricDef{"client.lag_ms_p99", "ms", "wall"},
		metricDef{"client.inflight_max", "count", "count"},
		metricDef{"host.ref_ms", "ms", "wall"},
		metricDef{"raw.setup_s", "s", "wall"},
		metricDef{"raw.images_per_s", "1/s", "wall"},
		metricDef{"raw.latency_ms_p50", "ms", "wall"},
		metricDef{"trace.overhead_share", "share", "share"},
		metricDef{"trace.residual_share", "share", "share"},
		metricDef{"error_share", "share", "share"},
	)
}

// measure is one reported value with the number of samples behind it.
type measure struct {
	value float64
	n     int
}

// values collects a workload's measures by metric name.
type values map[string]measure

func (v values) set(name string, value float64, n int) { v[name] = measure{value, n} }

// setDur records a duration in the given unit ("ms", "us" or "s").
func (v values) setDur(name string, d time.Duration, unit string, n int) {
	v.set(name, durIn(d, unit), n)
}

func durIn(d time.Duration, unit string) float64 {
	switch unit {
	case "s":
		return d.Seconds()
	case "ms":
		return float64(d) / float64(time.Millisecond)
	case "us":
		return float64(d) / float64(time.Microsecond)
	}
	panic("durIn: unknown unit " + unit)
}

// quantile returns the nearest-rank q-quantile (q in (0, 1]) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func durQuantile(ds []time.Duration, q float64, unit string) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = durIn(d, unit)
	}
	return quantile(xs, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

// setupTimes are one set-up's program-call times by span name.
type setupTimes map[string]time.Duration

func (st setupTimes) total() time.Duration {
	var d time.Duration
	for _, x := range st {
		d += x
	}
	return d
}

// A run sets up minSetups times, and more, up to maxSetups, until the
// set-ups have taken setupBudget together; setup_s is their median.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// moreSetups reports whether another set-up is due after reps.
func moreSetups(reps []setupTimes) bool {
	var spent time.Duration
	for _, st := range reps {
		spent += st.total()
	}
	return len(reps) < minSetups || (len(reps) < maxSetups && spent < setupBudget)
}

// setupMetrics reports setup_s, the median over the set-up repetitions of
// the whole set-up, and for each named part the median of its time as
// <part>_ms, all at reference host speed: host holds the calibration
// kernel's times taken between the set-ups, and the medians are scaled by
// refNominal over their median (calib.go). The unscaled setup_s is
// raw.setup_s.
func setupMetrics(v values, reps []setupTimes, host speed, parts ...string) {
	k := host.factor()
	medianOf := func(f func(setupTimes) time.Duration) time.Duration {
		ds := make([]time.Duration, len(reps))
		for i, st := range reps {
			ds[i] = f(st)
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return time.Duration(float64(ds[len(ds)/2]) * k)
	}
	v.setDur("setup_s", medianOf(setupTimes.total), "s", len(reps))
	v.setDur("raw.setup_s", time.Duration(float64(medianOf(setupTimes.total))/k), "s", len(reps))
	for _, p := range parts {
		v.setDur(p+"_ms", medianOf(func(st setupTimes) time.Duration { return st[p] }), "ms", len(reps))
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// checker counts correctness checks; every failure is printed and counts
// toward the run's failed operations.
type checker struct {
	run, failed int
}

func (c *checker) expect(ok bool, format string, args ...any) {
	c.run++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}
