// Command perfbench is the repository benchmark: three seeded workloads
// over the RESPARC simulator and its serving stack, timed from outside the
// program's public API.
//
//	perfbench --workload offline-mlp|offline-cnn|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a traced run. A table of every reported metric with its unit, kind and
// sample count goes to standard error. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
)

// opts are one run's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	traceOut string
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	vals      values
	attempted int
	failedOps int
	checks    checker
}

var workloads = map[string]func(opts) (*outcome, error){
	"offline-mlp": func(o opts) (*outcome, error) { return runOffline(o, mlpBenches, 4) },
	"offline-cnn": func(o opts) (*outcome, error) { return runOffline(o, cnnBenches, 2) },
	"serve-mix":   runServeMix,
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "offline-mlp, offline-cnn or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: images, encoders and arrival schedule")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.traceOut, "trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload offline-mlp|offline-cnn|serve-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.workers = runtime.GOMAXPROCS(0)
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := report(o, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
}

// report prints the table to standard error and the result line to
// standard output.
func report(o opts, out *outcome) error {
	failed := out.failedOps + out.checks.failed
	out.vals.set("error_share", float64(failed)/float64(max(out.attempted, 1)), out.attempted)
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s seed=%d workers=%d\tvalue\tunit\tkind\tsamples\t\n", o.workload, o.seed, o.workers)
	for _, d := range defs {
		m, ok := out.vals[d.Name]
		if !ok && !o.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metric{m.value, d.Unit}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%d\t\n", d.Name, m.value, d.Unit, d.Kind, m.n)
	}
	fmt.Fprintf(tw, "checks\t%d run, %d failed\t\t\t\t\n", out.checks.run, out.checks.failed)
	_ = tw.Flush()
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, max(out.attempted, 1), failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
