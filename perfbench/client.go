package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"resparc/internal/tensor"
)

// idHeader carries a traced request's id from the client through the
// balancer to the replica, so their spans share it.
const idHeader = "X-Perfbench-Id"

// request is one classification the load client sends.
type request struct {
	id      int64
	backend string
	image   int
	seed    int64
	// Open-loop requests only: the phase and the due time, counted from the
	// start of the window.
	phase int
	due   time.Duration
}

// makeRequests draws n requests with ids first, first+1, ...: a backend
// from the mix, the pool images in turn, and a spike-stream seed no other
// request of the run uses, so every request is a distinct (input, seed)
// pair.
func makeRequests(rng *rand.Rand, seed, first int64, n, images int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		id := first + int64(i)
		reqs[i] = request{id: id, backend: pickBackend(rng.Float64()), image: int(id) % images, seed: requestSeed(seed, id)}
	}
	return reqs
}

// Request ids: closed-loop requests count up from 0, open-loop ones from
// openFirst, warm-up ones from warmFirst; all stay below 1<<24.
const (
	openFirst = 1 << 22
	warmFirst = 1 << 23
)

func requestSeed(seed, id int64) int64 { return seed<<24 + id + 1 }

func pickBackend(u float64) string {
	for _, b := range backendMix {
		if u < b.share {
			return b.name
		}
		u -= b.share
	}
	return backendMix[len(backendMix)-1].name
}

// phase is one fixed-rate stretch of the open-loop schedule.
type phase struct {
	rate float64 // requests per second
	dur  time.Duration
}

// schedule draws open-loop arrivals: per phase, round(rate x duration)
// arrival times placed uniformly at random (a Poisson process conditioned
// on its count), filled with requests from openFirst on.
func schedule(rng *rand.Rand, seed int64, phases []phase, images int) []request {
	var reqs []request
	var offset time.Duration
	for pi, ph := range phases {
		n := int(ph.rate*ph.dur.Seconds() + 0.5)
		dues := make([]time.Duration, n)
		for i := range dues {
			dues[i] = offset + time.Duration(rng.Float64()*float64(ph.dur))
		}
		sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
		for i, r := range makeRequests(rng, seed, openFirst+int64(len(reqs)), n, images) {
			r.phase, r.due = pi, dues[i]
			reqs = append(reqs, r)
		}
		offset += ph.dur
	}
	return reqs
}

// bodies assembles wire requests around each pool image's JSON, encoded
// once, so the client spends no time encoding 784 floats per request.
type bodies struct {
	model  string
	inputs [][]byte
}

func newBodies(model string, pool []tensor.Vec) (*bodies, error) {
	b := &bodies{model: model, inputs: make([][]byte, len(pool))}
	for i, in := range pool {
		raw, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("encoding input: %w", err)
		}
		b.inputs[i] = raw
	}
	return b, nil
}

// body is the serve.ClassifyRequest wire form of r.
func (b *bodies) body(r request) []byte {
	buf := make([]byte, 0, len(b.inputs[r.image])+96)
	buf = append(buf, `{"model":"`...)
	buf = append(buf, b.model...)
	buf = append(buf, `","backend":"`...)
	buf = append(buf, r.backend...)
	buf = append(buf, `","input":`...)
	buf = append(buf, b.inputs[r.image]...)
	buf = append(buf, `,"seed":`...)
	buf = strconv.AppendInt(buf, r.seed, 10)
	return append(buf, '}')
}

// answer is what the client saw for one request.
type answer struct {
	sent, done time.Duration // from the start of the window
	status     int
	body       []byte
	err        error
}

// send posts one request and records its answer; traced requests carry
// their id in idHeader and get a client span.
func send(client *http.Client, url string, b *bodies, r request, start time.Time, tr *tracer, a *answer) {
	a.sent = time.Since(start)
	h := tr.begin("client.request", r.id, -1)
	a.status, a.body, a.err = post(client, url, b.body(r), r.id, tr != nil)
	tr.end(h)
	a.done = time.Since(start)
}

// closedLoop sends every request of reqs from conc clients, each sending
// its next request as soon as the previous one is answered, and returns the
// answers in request order.
func closedLoop(client *http.Client, url string, b *bodies, reqs []request, conc int, tr *tracer) []answer {
	answers := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				send(client, url, b, reqs[i], start, tr, &answers[i])
			}
		}()
	}
	wg.Wait()
	return answers
}

// segment is one stretch of a segmented closed loop: answers
// [first, first+n) and their wall time.
type segment struct {
	first, n int
	wall     time.Duration
}

// segmentReqs requests make one segment: about half a second of load on a
// 2-core host.
const segmentReqs = 96

// segmentedLoop runs the closed loop in segments of segmentReqs requests,
// running the calibration kernel on workers goroutines between them, while
// nothing is in flight, until length has elapsed and at least minDone
// requests were sent, or the list runs out. It returns the answers, the
// segments and the kernel's times.
func segmentedLoop(client *http.Client, url string, b *bodies, reqs []request, conc, minDone int, length time.Duration, workers int, tr *tracer) ([]answer, []segment, speed) {
	var answers []answer
	var segs []segment
	var host speed
	start := time.Now()
	for (len(answers) < minDone || time.Since(start) < length) && len(answers) < len(reqs) {
		rest := reqs[len(answers):]
		s0 := time.Now()
		as := closedLoop(client, url, b, rest[:min(segmentReqs, len(rest))], conc, tr)
		segs = append(segs, segment{len(answers), len(as), time.Since(s0)})
		answers = append(answers, as...)
		host.sample(workers, segs[len(segs)-1].wall)
	}
	return answers, segs, host
}

// openLoop sends every request at its due time, whether or not earlier ones
// have been answered, and returns the answers in request order with the
// largest number in flight at once. Latency counts from the due time, so a
// stalled generator shows up as latency and as lag (sent - due).
func openLoop(client *http.Client, url string, b *bodies, reqs []request, tr *tracer) ([]answer, int) {
	answers := make([]answer, len(reqs))
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		if d := reqs[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			send(client, url, b, reqs[i], start, tr, &answers[i])
		}(i)
	}
	wg.Wait()
	return answers, int(peak.Load())
}

func post(client *http.Client, url string, body []byte, id int64, traced bool) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if traced {
		hr.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	resp, err := client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// newClient returns the load client: unencrypted HTTP/2 with prior
// knowledge, so in-flight requests share at most conns connections instead
// of queueing in the client.
func newClient(conns int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.Protocols = new(http.Protocols)
	t.Protocols.SetUnencryptedHTTP2(true)
	t.MaxConnsPerHost = conns
	return &http.Client{Transport: t}
}

type ctxKey struct{}

// traceHandler records a span around every traced classify request; the
// balancer's wrapper also puts the id in the request context, where
// idTransport finds it for the upstream hop.
func traceHandler(tr *tracer, name, parentName string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
		if err != nil || r.URL.Path != "/v1/classify" {
			next.ServeHTTP(w, r)
			return
		}
		h := tr.beginNamed(name, id, parentName)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, id)))
		tr.end(h)
	})
}

// idTransport forwards a traced request's id on the balancer's upstream
// hop and records a span around the round trip (to response headers).
type idTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(ctxKey{}).(int64)
	if !ok {
		return t.next.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(idHeader, strconv.FormatInt(id, 10))
	h := t.tr.beginNamed("lb.upstream", id, "lb.handler")
	defer t.tr.end(h)
	return t.next.RoundTrip(r)
}
