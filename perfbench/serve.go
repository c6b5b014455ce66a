package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"resparc/internal/bench"
	"resparc/internal/dataset"
	"resparc/internal/lb"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/serve"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

const (
	serveModel = "mnist-mlp"
	// closedPerWorker clients per simulator worker keep the closed loop
	// saturated: enough requests queue for the micro-batcher to fill.
	closedPerWorker = 4
	// The closed loop always sends at least minClosed requests; the modeled
	// means are taken over exactly these, so they depend on the seed alone.
	minClosed = 1024
	// closedPerSecond sizes the closed loop's request list, well above the
	// ~190 requests/s a 2-core host answers.
	closedPerSecond = 500
	// The open loop's two fixed rates; lightShare of its window runs at
	// lightRate, the rest at peakRate.
	lightRate      = 30.0
	peakRate       = 60.0
	lightShare     = 1.0 / 3
	sloLimit       = 250 * time.Millisecond
	requestTimeout = 10 * time.Second
	servePoolSize  = 256
	// recomputed answers per run (check c).
	recomputeSample = 12
	// The placement the replica serves: annealed, 4 chips.
	planSeed   = 1
	planShards = 4
)

var backendMix = []struct {
	name  string
	share float64
}{{"resparc", 0.60}, {"cmos", 0.25}, {"resparc-x4", 0.15}}

// stack is the in-process serving path: one resparc-serve replica behind
// one resparc-lb balancer, both on real localhost HTTP.
type stack struct {
	model     *serve.Model
	objective float64 // the placement's Cost.Objective
	rcfg      serve.RegistryConfig
	srv       *serve.Server
	bal       *lb.LB
	servers   []*http.Server
	done      []chan struct{}
	lbURL     string
	client    *http.Client
}

// listen serves h on a fresh localhost port.
func (s *stack) listen(h http.Handler, protocols *http.Protocols) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening: %w", err)
	}
	hs := &http.Server{Handler: h, Protocols: protocols}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	s.servers = append(s.servers, hs)
	s.done = append(s.done, done)
	return "http://" + ln.Addr().String(), nil
}

// close shuts the HTTP servers down (waiting for running handlers), then
// stops the balancer's poller and drains the replica. It is idempotent.
func (s *stack) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	for i := len(s.servers) - 1; i >= 0; i-- {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if s.servers[i].Shutdown(ctx) != nil {
			_ = s.servers[i].Close() // handlers outlived the grace period
		}
		cancel()
		<-s.done[i]
	}
	s.servers, s.done = nil, nil
	if s.bal != nil {
		s.bal.Close()
		s.bal = nil
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
}

// setupServe builds the network, plans its annealed 4-chip placement and
// round-trips it through the artifact format, loads it into a registry,
// starts the replica and the balancer, and sends one request per backend.
// The calls' times go to st.
func setupServe(o opts, tr *tracer, rep int, bodies *bodies, st setupTimes) (*stack, error) {
	s := &stack{}
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}
	root := tr.begin("setup", int64(rep), -1)
	defer tr.end(root)
	b, err := bench.ByName(serveModel)
	if err != nil {
		return fail(err)
	}
	var net *snn.Network
	if err = timed(tr, st, "bench.build", int64(rep), root, func() (err error) {
		net, err = b.Build(netSeed)
		return err
	}); err != nil {
		return fail(fmt.Errorf("building %s: %w", serveModel, err))
	}
	var pl *mapping.Placement
	if err = timed(tr, st, "mapping.plan", int64(rep), root, func() error {
		cons := mapping.DefaultConstraints(mapping.DefaultConfig())
		cons.Shards = planShards
		p, err := mapping.Annealed{Seed: planSeed}.Plan(net, cons)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := mapping.WritePlacement(&buf, p); err != nil {
			return err
		}
		pl, err = mapping.ReadPlacement(&buf)
		return err
	}); err != nil {
		return fail(fmt.Errorf("planning %s: %w", serveModel, err))
	}
	s.objective = pl.Cost.Objective
	s.rcfg = serve.DefaultRegistryConfig()
	s.rcfg.Placements = map[string]*mapping.Placement{net.Name: pl}
	var reg *serve.Registry
	if err = timed(tr, st, "serve.registry", int64(rep), root, func() (err error) {
		if reg, err = serve.NewRegistry(s.rcfg); err != nil {
			return err
		}
		s.model, err = reg.AddNetwork(net)
		return err
	}); err != nil {
		return fail(fmt.Errorf("loading %s: %w", serveModel, err))
	}
	for _, bm := range backendMix {
		if _, ok := s.model.Backend(bm.name); !ok {
			return fail(fmt.Errorf("%s has no backend %q (has %v)", serveModel, bm.name, s.model.Backends()))
		}
	}
	if err = timed(tr, st, "serve.start", int64(rep), root, func() error { return s.start(o, tr, reg) }); err != nil {
		return fail(err)
	}
	if err = timed(tr, st, "warmup", int64(rep), root, func() error { return s.warmup(o, bodies) }); err != nil {
		return fail(err)
	}
	return s, nil
}

// start brings up the replica and the balancer. With a tracer both
// handlers are wrapped in span recorders and the balancer's client
// forwards request ids; without one they run exactly as shipped.
func (s *stack) start(o opts, tr *tracer, reg *serve.Registry) error {
	var err error
	if s.srv, err = serve.New(serve.DefaultConfig(reg)); err != nil {
		return fmt.Errorf("starting replica: %w", err)
	}
	var h http.Handler = s.srv.Handler()
	if tr != nil {
		h = traceHandler(tr, "serve.handler", "lb.upstream", h)
	}
	replicaURL, err := s.listen(h, nil)
	if err != nil {
		return err
	}
	cfg := lb.DefaultConfig([]lb.Replica{{Name: "r1", URL: replicaURL}})
	if tr != nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: idTransport{tr, http.DefaultTransport}}
	}
	if s.bal, err = lb.New(cfg); err != nil {
		return fmt.Errorf("starting balancer: %w", err)
	}
	h = s.bal.Handler()
	if tr != nil {
		h = traceHandler(tr, "lb.handler", "client.request", h)
	}
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	if s.lbURL, err = s.listen(h, protocols); err != nil {
		return err
	}
	s.client = newClient(o.workers)
	return nil
}

// warmup sends one request per backend through the balancer, filling the
// lazy weight caches and opening the client and upstream connections.
func (s *stack) warmup(o opts, b *bodies) error {
	for k, bm := range backendMix {
		id := warmFirst + int64(k)
		r := request{id: id, backend: bm.name, seed: requestSeed(o.seed, id)}
		status, raw, err := post(s.client, s.lbURL, b.body(r), id, false)
		if err != nil {
			return fmt.Errorf("warm-up on %s: %w", bm.name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up on %s: status %d: %s", bm.name, status, raw)
		}
	}
	return nil
}

// load is one window of answers with the program's counters over it.
type load struct {
	reqs     []request
	answers  []answer
	ok       []bool
	resp     []serve.ClassifyResponse
	segs     []segment // a segmented closed loop's segments
	host     speed     // and the calibration kernel's times between them
	inflight int
	serveD   serve.Snapshot // counter deltas over the window
	lbD      lb.Snapshot
}

// runWindowOn runs one load window — run returns the answers, a closed
// loop's segments and kernel times, and the largest number of requests in
// flight — and decodes its answers.
func runWindowOn(s *stack, reqs []request, run func() ([]answer, []segment, speed, int)) load {
	s0, l0 := s.srv.Metrics().Snapshot(), s.bal.Metrics().Snapshot()
	answers, segs, host, inflight := run()
	s1, l1 := s.srv.Metrics().Snapshot(), s.bal.Metrics().Snapshot()
	ld := load{reqs: reqs[:len(answers)], answers: answers, segs: segs, host: host, inflight: inflight,
		ok: make([]bool, len(answers)), resp: make([]serve.ClassifyResponse, len(answers))}
	for i, a := range answers {
		if a.err == nil && a.status == http.StatusOK {
			ld.ok[i] = json.Unmarshal(a.body, &ld.resp[i]) == nil
		}
	}
	ld.serveD = serve.Snapshot{Requests: s1.Requests - s0.Requests, Batches: s1.Batches - s0.Batches,
		BatchImages: s1.BatchImages - s0.BatchImages, Codes: map[int]int64{}}
	for c, n := range s1.Codes {
		ld.serveD.Codes[c] = n - s0.Codes[c]
	}
	ld.lbD = lb.Snapshot{Requests: l1.Requests - l0.Requests, Retries: l1.Retries - l0.Retries, Shed: map[lb.Tier]int64{}}
	for t, n := range l1.Shed {
		ld.lbD.Shed[t] = n - l0.Shed[t]
	}
	return ld
}

// latencies returns the latencies (ms) of the successful requests that
// pass keep: from the due time in an open loop, from the send otherwise.
func (ld load) latencies(keep func(request) bool) []float64 {
	var xs []float64
	for i, r := range ld.reqs {
		if ld.ok[i] && keep(r) {
			from := ld.answers[i].sent
			if r.due > 0 {
				from = r.due
			}
			xs = append(xs, durIn(ld.answers[i].done-from, "ms"))
		}
	}
	return xs
}

func (ld load) failed() int {
	n := 0
	for _, ok := range ld.ok {
		if !ok {
			n++
		}
	}
	return n
}

// digest hashes the outcome, prediction, modeled energy and modeled
// latency (cycles times the cycle time) of the first n requests.
func (ld load) digest(n int) uint64 {
	h := fnv.New64a()
	var buf []byte
	for i := range n {
		p := ld.resp[i].Perf
		buf = strconv.AppendInt(buf[:0], ld.reqs[i].id, 10)
		buf = strconv.AppendBool(append(buf, ' '), ld.ok[i])
		buf = strconv.AppendInt(append(buf, ' '), int64(ld.resp[i].Prediction), 10)
		buf = strconv.AppendUint(append(buf, ' '), math.Float64bits(p.Energy), 16)
		buf = strconv.AppendUint(append(buf, ' '), math.Float64bits(p.Latency), 16)
		h.Write(append(buf, '\n'))
	}
	return h.Sum64()
}

func all(request) bool { return true }

// runServeMix measures the serving path. The end-to-end metrics come from a
// closed loop that keeps closedPerWorker x nproc requests in flight; a
// traced run splits its window into an untraced and a traced closed loop
// (the tracing overhead and check a) and a traced open loop of seeded
// Poisson arrivals at a light and a peak rate, which gives the per-layer
// serving metrics. The traced loops run on a freshly set-up stack, so the
// traced closed loop, which resends the timed one's requests, finds no
// state the timed one left behind.
func runServeMix(o opts) (*outcome, error) {
	out := &outcome{vals: values{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	b, err := bench.ByName(serveModel)
	if err != nil {
		return nil, err
	}
	set := dataset.Generate(b.Dataset, servePoolSize, o.seed)
	pool := make([]tensor.Vec, len(set.Samples))
	for i, smp := range set.Samples {
		pool[i] = bench.NormalizeIntensity(smp.Input)
	}
	bodies, err := newBodies(serveModel, pool)
	if err != nil {
		return nil, err
	}
	length := time.Duration(o.seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(o.seed))
	closedReqs := makeRequests(rng, o.seed, 0, minClosed+int(closedPerSecond*o.seconds), len(pool))

	var s *stack
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	var reps []setupTimes
	var host speed
	for moreSetups(reps) {
		if s != nil {
			// s is captured by closures, so only nil frees the old stack
			// before the next one is built.
			s.close()
			s = nil
		}
		runtime.GC()
		st := setupTimes{}
		if s, err = setupServe(o, tr, len(reps), bodies, st); err != nil {
			return nil, err
		}
		reps = append(reps, st)
		host.sample(o.workers, st.total())
	}
	setupMetrics(out.vals, reps, host, "bench.build", "mapping.plan", "serve.registry")
	out.vals.set("mapping.plan_objective", s.objective, 1)
	if got, want := len(s.model.Net.Layers), layerCount(serveModel); got != want {
		return nil, fmt.Errorf("%s has %d layers, the metric catalog expects %d", serveModel, got, want)
	}

	closedLen := length
	if o.trace {
		closedLen = length / 4
	}
	conc := closedPerWorker * o.workers
	cl := runWindowOn(s, closedReqs, func() ([]answer, []segment, speed, int) {
		as, segs, host := segmentedLoop(s.client, s.lbURL, bodies, closedReqs, conc, minClosed, closedLen, o.workers, nil)
		return as, segs, host, conc
	})
	out.attempted += len(cl.reqs)
	out.failedOps += cl.failed()
	serveEndToEnd(out.vals, cl)
	recompute(s, pool, cl, &out.checks)

	if o.trace {
		s.close()
		s = nil
		runtime.GC()
		if s, err = setupServe(o, tr, len(reps), bodies, setupTimes{}); err != nil {
			return nil, err
		}
		tcl := runWindowOn(s, closedReqs, func() ([]answer, []segment, speed, int) {
			as, segs, host := segmentedLoop(s.client, s.lbURL, bodies, closedReqs, conc, minClosed, closedLen, o.workers, tr)
			return as, segs, host, conc
		})
		out.attempted += len(tcl.reqs)
		out.failedOps += tcl.failed()
		n := min(len(cl.reqs), len(tcl.reqs))
		out.checks.expect(cl.digest(n) == tcl.digest(n), "digest of %d requests differs between the timed and the traced run", n)
		out.vals.set("trace.overhead_share", mean(tcl.scaledLatencies())/mean(cl.scaledLatencies())-1, n)

		light := time.Duration(float64(length/2) * lightShare)
		openReqs := schedule(rng, o.seed, []phase{{lightRate, light}, {peakRate, length/2 - light}}, len(pool))
		ol := runWindowOn(s, openReqs, func() ([]answer, []segment, speed, int) {
			as, inflight := openLoop(s.client, s.lbURL, bodies, openReqs, tr)
			return as, nil, speed{}, inflight
		})
		out.attempted += len(ol.reqs)
		out.failedOps += ol.failed()
		servePerLayer(out.vals, ol)
	}
	n := 1
	if o.trace {
		n = 4
	}
	out.attempted += n
	if err := decompose(serveModel, s.model.Chip, pool, snn.NewPoissonEncoder(maxProb, o.seed), n, tr, &out.checks, out.vals, nil); err != nil {
		return nil, err
	}
	if o.trace {
		s.close() // every handler span has ended once the servers are down
		spans := tr.finish()
		handlerMetrics(out.vals, spans)
		residualShare(out.vals, spans, []string{serveModel})
		if err := writeSpans(traceFile(o), spans); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.vals.set("rss_peak_mb", rss, 1)
	return out, nil
}

// scaledLatencies returns a segmented closed loop's latencies (ms) of the
// successful requests, from the send, at reference host speed.
func (ld load) scaledLatencies() []float64 {
	xs := ld.latencies(all)
	k := ld.host.factor()
	for i := range xs {
		xs[i] *= k
	}
	return xs
}

// perSec is the median over the segments of answered requests per second,
// at reference host speed or, raw, per wall second.
func (ld load) perSec(raw bool) float64 {
	xs := make([]float64, len(ld.segs))
	for k, sg := range ld.segs {
		n := 0
		for _, ok := range ld.ok[sg.first : sg.first+sg.n] {
			if ok {
				n++
			}
		}
		xs[k] = float64(n) / sg.wall.Seconds()
	}
	if raw {
		return quantile(xs, 0.5)
	}
	return quantile(xs, 0.5) / ld.host.factor()
}

// serveEndToEnd sets the end-to-end metrics of the closed loop: answered
// requests per second and the median per-request latency from the send,
// both at reference host speed (the raw ones and the p99 are per-layer
// metrics), and the modeled means of the resparc and resparc-x4 answers
// among the first minClosed requests.
func serveEndToEnd(v values, ld load) {
	lat := ld.latencies(all)
	v.set("latency_ms_p50", quantile(ld.scaledLatencies(), 0.5), len(lat))
	v.set("raw.latency_ms_p50", quantile(lat, 0.5), len(lat))
	v.set("client.closed.latency_ms_p99", quantile(lat, 0.99), len(lat))
	v.set("images_per_s", ld.perSec(false), len(ld.segs))
	v.set("raw.images_per_s", ld.perSec(true), len(ld.segs))
	v.set("host.ref_ms", ld.host.medianMs(), len(ld.host.ref))
	var energy, model []float64
	for i := range minClosed {
		if ld.ok[i] && ld.reqs[i].backend != "cmos" {
			energy = append(energy, ld.resp[i].Perf.Energy*1e6)
			model = append(model, ld.resp[i].Perf.Latency*1e6)
		}
	}
	v.set("model_uj_per_image", mean(energy), len(energy))
	v.set("model_us_per_image", mean(model), len(model))
}

// servePerLayer sets the serving-path metrics of the traced open loop.
func servePerLayer(v values, ld load) {
	for _, bm := range backendMix {
		xs := ld.latencies(func(r request) bool { return r.backend == bm.name })
		v.set("client."+bm.name+".latency_ms_p50", quantile(xs, 0.5), len(xs))
	}
	for pi, name := range []string{"light", "peak"} {
		xs := ld.latencies(func(r request) bool { return r.phase == pi })
		v.set("client."+name+".latency_ms_p50", quantile(xs, 0.5), len(xs))
		v.set("client."+name+".latency_ms_p99", quantile(xs, 0.99), len(xs))
	}
	var peakSent, peakMet int
	var queue, lag []float64
	for i, r := range ld.reqs {
		a := ld.answers[i]
		lag = append(lag, durIn(a.sent-r.due, "ms"))
		if ld.ok[i] {
			queue = append(queue, ld.resp[i].QueueMs)
		}
		if r.phase == 1 {
			peakSent++
			if ld.ok[i] && a.done-r.due <= sloLimit {
				peakMet++
			}
		}
	}
	v.set("client.peak.slo_share", float64(peakMet)/float64(max(peakSent, 1)), peakSent)
	v.set("client.lag_ms_p99", quantile(lag, 0.99), len(lag))
	v.set("client.inflight_max", float64(ld.inflight), 1)
	v.set("serve.queue_ms_p50", quantile(queue, 0.5), len(queue))
	v.set("serve.queue_ms_p99", quantile(queue, 0.99), len(queue))
	v.set("serve.batch_size_mean", float64(ld.serveD.BatchImages)/float64(max(ld.serveD.Batches, 1)), int(ld.serveD.Batches))
	rejected := ld.serveD.Codes[http.StatusTooManyRequests] + ld.serveD.Codes[http.StatusServiceUnavailable]
	v.set("serve.reject_share", float64(rejected)/float64(max(ld.serveD.Requests, 1)), int(ld.serveD.Requests))
	var shed int64
	for _, n := range ld.lbD.Shed {
		shed += n
	}
	v.set("lb.shed_share", float64(shed)/float64(max(ld.lbD.Requests, 1)), int(ld.lbD.Requests))
	v.set("lb.retry_share", float64(ld.lbD.Retries)/float64(max(ld.lbD.Requests, 1)), int(ld.lbD.Requests))
}

// handlerMetrics sets the replica and balancer handler times of the open
// loop's requests (ids from openFirst on).
func handlerMetrics(v values, spans []span) {
	var handler, balancer []time.Duration
	for _, s := range spans {
		if s.ID < openFirst || s.ID >= warmFirst {
			continue
		}
		switch s.Name {
		case "serve.handler":
			handler = append(handler, s.dur())
		case "lb.handler":
			balancer = append(balancer, s.dur())
		}
	}
	v.set("serve.handler_ms_p50", durQuantile(handler, 0.5, "ms"), len(handler))
	v.set("serve.handler_ms_p99", durQuantile(handler, 0.99, "ms"), len(handler))
	v.set("lb.self_ms_mean", durIn(meanDur(balancer)-meanDur(handler), "ms"), len(balancer))
}

// recompute re-classifies a sample of answered requests directly on the
// model's backends, with the replica's encoder forked by the request seed,
// and checks that prediction and modeled perf match the wire answer.
func recompute(s *stack, pool []tensor.Vec, ld load, checks *checker) {
	var answered []int
	for i, ok := range ld.ok {
		if ok {
			answered = append(answered, i)
		}
	}
	if len(answered) == 0 {
		checks.expect(false, "no request was answered")
		return
	}
	for k := range recomputeSample {
		i := answered[k*len(answered)/recomputeSample]
		r, got := ld.reqs[i], ld.resp[i]
		bk, found := s.model.Backend(r.backend)
		if !found {
			checks.expect(false, "request %d: backend %q vanished", r.id, r.backend)
			continue
		}
		enc := snn.NewPoissonEncoder(s.rcfg.MaxProb, s.rcfg.Seed).ForkSeed(int(r.seed))
		want, rep := bk.Classify(pool[r.image], enc)
		checks.expect(got.Backend == r.backend && rep.Predicted == got.Prediction && samePerf(want, got.Perf),
			"request %d on %s: answered %d %+v, recomputed %d %+v", r.id, r.backend, got.Prediction, got.Perf, rep.Predicted, want)
	}
}

func samePerf(a, b perf.Result) bool {
	if a.Arch != b.Arch || a.Network != b.Network || a.Energy != b.Energy || a.Latency != b.Latency ||
		a.Steps != b.Steps || a.SpikesPerStep != b.SpikesPerStep || len(a.LayerOccupancy) != len(b.LayerOccupancy) {
		return false
	}
	for i := range a.LayerOccupancy {
		if a.LayerOccupancy[i] != b.LayerOccupancy[i] {
			return false
		}
	}
	return true
}
