package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/experiments"
	"smiless/internal/hardware"
	"smiless/internal/metrics"
	"smiless/internal/serving"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// handlerTransport sends the client's requests straight into the
// gateway's ServeHTTP: the full client and handler stacks run, no socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// system is one live gateway + runtime under test.
type system struct {
	rt     *serving.Runtime
	gw     *serving.Gateway
	client *http.Client
	rec    *tracing.Recorder
	probe  *probe
}

// systemConfig describes how to build a system.
type systemConfig struct {
	app      *apps.Application
	driver   func() (simulator.Driver, error)
	sla      float64
	seed     int64
	recorder bool
	// maxInflight is the admission cap (MaxInflight and QueueCap).
	maxInflight int
}

// start builds the driver, runtime and gateway on a wall clock and starts
// serving. With a tracer, the driver and forecaster are wrapped in timing
// spans and the clock counts armed timers.
func (c systemConfig) start(tr *tracer) (*system, error) {
	drv, err := c.driver()
	if err != nil {
		return nil, err
	}
	var clk clock.Scheduler = clock.NewWall()
	s := &system{}
	if tr != nil {
		s.probe = newProbe(tr, 0)
		drv = s.probe.driver(drv)
		clk = s.probe.clock(clk)
	}
	if c.recorder {
		s.rec = tracing.NewRecorder(c.app.Graph)
	}
	s.rt, err = serving.New(serving.Config{
		App: c.app, SLA: c.sla, Window: 1, Seed: c.seed,
		MaxInflight: c.maxInflight, QueueCap: c.maxInflight,
		Recorder: s.rec, Clock: clk,
	}, drv)
	if err != nil {
		return nil, err
	}
	s.rt.Start()
	s.gw = serving.NewGateway(s.rt, drv.Name())
	s.client = &http.Client{Transport: handlerTransport{s.gw}}
	resp, err := s.client.Get("http://perfbench/healthz")
	if err != nil {
		s.rt.Close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.rt.Close()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return s, nil
}

// serveSetup times start-until-ready setupReps times and appends each
// time to times.
func serveSetup(c systemConfig, tr *tracer, times []float64) ([]float64, error) {
	for r := 0; r < setupReps; r++ {
		start := clock.Monotonic()
		s, err := c.start(tr)
		if err != nil {
			return times, err
		}
		times = append(times, float64(clock.Monotonic()-start)/1e9)
		s.rt.Close()
	}
	return times, nil
}

// shot is one request of the open-loop generator. Times are
// clock.Monotonic nanoseconds.
type shot struct {
	due, sent, done int64
	status          int
	resp            serving.InvokeResponse
	timedOut        bool
	badBody         bool
}

func (s *shot) latency() float64 { return float64(s.done-s.due) / 1e9 }
func (s *shot) lag() float64     { return float64(s.sent-s.due) / 1e9 }

// ok reports whether the request completed.
func (s *shot) ok() bool { return s.status == http.StatusOK && !s.badBody && !s.resp.Failed }

// generator is the benchmark's open-loop load generator: each request is
// sent at its due instant on its own goroutine, whatever the state of
// earlier ones, and its latency is taken from that instant.
type generator struct {
	sys         *system
	tr          *tracer
	timeout     time.Duration
	outstanding atomic.Int64
	wg          sync.WaitGroup
}

// fire sends one request on its own goroutine and records it into s. The
// send instant is taken here, so the goroutine's start-up delay counts as
// latency, not as generator lag.
func (g *generator) fire(ctx context.Context, s *shot) {
	s.sent = clock.Monotonic()
	g.outstanding.Add(1)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.outstanding.Add(-1)
		g.send(ctx, s)
	}()
}

func (g *generator) send(ctx context.Context, s *shot) {
	ctx, cancel := context.WithTimeout(ctx, g.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://perfbench/invoke", nil)
	if err != nil {
		s.badBody = true
		s.done = clock.Monotonic()
		return
	}
	resp, err := g.sys.client.Do(req)
	if err != nil {
		s.timedOut = ctx.Err() != nil
		s.badBody = !s.timedOut
		s.done = clock.Monotonic()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = clock.Monotonic()
	s.status = resp.StatusCode
	if ctx.Err() != nil {
		s.timedOut = true
		return
	}
	if s.status == http.StatusOK {
		if err != nil || json.Unmarshal(body, &s.resp) != nil {
			s.badBody = true
			return
		}
		g.tr.record("gateway.invoke", 0, s.resp.Request, s.sent, s.done)
	}
}

// pace sends shots at their due instants (offsets from start). It stops
// early, leaving the rest unsent, when stop(i) returns true before shot i;
// it returns how many were sent.
func (g *generator) pace(ctx context.Context, start int64, shots []shot, stop func(int) bool) int {
	for i := range shots {
		shots[i].due = start + shots[i].due
		if wait := shots[i].due - clock.Monotonic(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if stop != nil && stop(i) {
			return i
		}
		g.fire(ctx, &shots[i])
	}
	return len(shots)
}

// scraper GETs /metrics at a fixed wall cadence until stopped.
type scraper struct {
	ms    []float64
	bytes []int
	last  []byte
	err   error
}

func (s *scraper) scrapeOnce(sys *system) {
	start := clock.Monotonic()
	resp, err := sys.client.Get("http://perfbench/metrics")
	if err != nil {
		s.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.ms = append(s.ms, float64(clock.Monotonic()-start)/1e6)
	if err != nil || resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("/metrics: status %d, %v", resp.StatusCode, err)
		return
	}
	s.bytes = append(s.bytes, len(body))
	s.last = body
}

func (s *scraper) run(ctx context.Context, sys *system, every time.Duration, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.scrapeOnce(sys)
		}
	}
}

// lockProbe times Runtime.Inflight, which waits for the runtime lock, at a
// fixed wall cadence until stopped.
type lockProbe struct {
	us          []float64
	inflightMax int
}

func (l *lockProbe) run(ctx context.Context, rt *serving.Runtime, every time.Duration, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			start := clock.Monotonic()
			n := rt.Inflight()
			l.us = append(l.us, float64(clock.Monotonic()-start)/1e3)
			if n > l.inflightMax {
				l.inflightMax = n
			}
		}
	}
}

// session is one measured live phase: the system, the generator and the
// background scraper (plus, when traced, the lock probe).
type session struct {
	sys      *system
	gen      *generator
	scr      scraper
	lock     lockProbe
	cancel   context.CancelFunc
	scrDone  chan struct{}
	lockDone chan struct{}
	heap     *heapSampler
	cpu0     float64
	start    int64
}

const (
	scrapeEvery = 100 * time.Millisecond
	probeEvery  = 10 * time.Millisecond
)

func openSession(ctx context.Context, sys *system, tr *tracer, timeout time.Duration) *session {
	ctx, cancel := context.WithCancel(ctx)
	s := &session{
		sys: sys, gen: &generator{sys: sys, tr: tr, timeout: timeout},
		cancel: cancel, scrDone: make(chan struct{}),
	}
	s.heap = startHeapSampler()
	s.cpu0 = cpuSeconds()
	s.start = clock.Monotonic()
	go s.scr.run(ctx, sys, scrapeEvery, s.scrDone)
	if tr != nil {
		s.lockDone = make(chan struct{})
		go s.lock.run(ctx, sys.rt, probeEvery, s.lockDone)
	}
	return s
}

// sessionEnd is what closing a session measured.
type sessionEnd struct {
	wall, cpu, heapMB float64
	completed         int
	cost              float64
	snapshotMS        float64
	rejected          int
}

// close waits for every response, stops the background goroutines, takes
// the final statistics and scrape, and closes the runtime.
func (s *session) close() (sessionEnd, error) {
	s.gen.wg.Wait()
	var e sessionEnd
	e.wall = float64(clock.Monotonic()-s.start) / 1e9
	s.cancel()
	<-s.scrDone
	if s.lockDone != nil {
		<-s.lockDone
	}
	e.cpu = cpuSeconds() - s.cpu0
	e.heapMB = s.heap.finish()
	snap := clock.Monotonic()
	stats := s.sys.rt.Snapshot()
	e.snapshotMS = float64(clock.Monotonic()-snap) / 1e6
	e.completed = stats.Completed
	e.cost = stats.TotalCost + s.sys.rt.LiveCost()
	e.rejected = s.sys.rt.Rejected()
	s.scr.scrapeOnce(s.sys)
	s.sys.rt.Close()
	if s.scr.err != nil {
		return e, s.scr.err
	}
	if _, err := metrics.ParseText(bytes.NewReader(s.scr.last)); err != nil {
		return e, fmt.Errorf("final /metrics scrape does not parse: %w", err)
	}
	return e, nil
}

// tally is the outcome of every request sent; each falls in exactly one
// class.
type tally struct{ sent, ok, failed, rejected, timedOut int }

func (t tally) add(u tally) tally {
	return tally{t.sent + u.sent, t.ok + u.ok, t.failed + u.failed, t.rejected + u.rejected, t.timedOut + u.timedOut}
}

// count classifies the shots of one session and checks them against the
// runtime's own counters: every completion the client saw was counted by
// the runtime exactly once, and so was every rejection.
func count(shots []shot, end sessionEnd) (tally, error) {
	var t tally
	for i := range shots {
		s := &shots[i]
		t.sent++
		switch {
		case s.timedOut:
			t.timedOut++
		case s.status == http.StatusTooManyRequests:
			t.rejected++
		case s.badBody && s.status == http.StatusOK:
			return t, fmt.Errorf("request %d: 200 body does not decode", i)
		case s.ok():
			t.ok++
		default:
			t.failed++
		}
	}
	if t.ok != end.completed || t.rejected != end.rejected {
		return t, fmt.Errorf("client saw %d completed and %d rejected of %d sent; the runtime counted %d and %d",
			t.ok, t.rejected, t.sent, end.completed, end.rejected)
	}
	return t, nil
}

func lags(shots []shot) []float64 {
	out := make([]float64, len(shots))
	for i := range shots {
		out[i] = shots[i].lag()
	}
	return out
}

// gatewayLayers fills the gateway, serving, clock, tracing and loadgen rows
// of a traced report from the traced reference phases, pooling their
// samples.
func gatewayLayers(m metricSet, phases []refPhase) {
	var overhead, scrapes, growths, probes, snaps, lag []float64
	sent, rejected, inflightMax, afters := 0, 0, 0, int64(0)
	retained, spans := 0, 0
	for _, ph := range phases {
		for i := range ph.shots {
			sh := &ph.shots[i]
			if sh.ok() {
				overhead = append(overhead, float64(sh.done-sh.sent)/1e3-sh.resp.E2ESeconds*1e6)
			}
		}
		scrapes = append(scrapes, ph.scr.ms...)
		if g := growth(ph.scr.ms); g > 0 {
			growths = append(growths, g)
		}
		probes = append(probes, ph.lock.us...)
		snaps = append(snaps, ph.end.snapshotMS)
		lag = append(lag, lags(ph.shots)...)
		sent += len(ph.shots)
		rejected += ph.end.rejected
		inflightMax = max(inflightMax, ph.lock.inflightMax)
		afters += ph.probe.afters.Load()
		retained = max(retained, ph.retained)
		spans = max(spans, ph.spans)
	}
	m.add("gateway.invoke_overhead_us_p50", quantile(overhead, 0.5), "us")
	m.add("gateway.invoke_overhead_us_p99", quantile(overhead, 0.99), "us")
	m.add("gateway.scrape_ms_p50", quantile(scrapes, 0.5), "ms")
	m.add("gateway.scrape_ms_max", maxOf(scrapes), "ms")
	m.add("gateway.scrape_growth", median(growths), "ratio")
	if last := phases[len(phases)-1].scr.bytes; len(last) > 0 {
		m.add("gateway.scrape_kb", float64(last[len(last)-1])/1024, "KiB")
	}
	m.add("gateway.rejected", float64(rejected), "count")
	m.add("serving.lock_probe_us_p99", quantile(probes, 0.99), "us")
	m.add("serving.lock_probe_ms_max", maxOf(probes)/1e3, "ms")
	m.add("serving.snapshot_ms_end", median(snaps), "ms")
	m.add("serving.inflight_max", float64(inflightMax), "count")
	m.add("clock.after_per_req", ratio(float64(afters), float64(sent)), "count")
	m.add("tracing.requests_retained", float64(retained), "count")
	m.add("tracing.container_spans_retained", float64(spans), "count")
	m.add("loadgen.send_lag_ms_p99", quantile(lag, 0.99)*1e3, "ms")
	m.add("loadgen.send_lag_ms_max", maxOf(lag)*1e3, "ms")
}

// --- serve-capacity --------------------------------------------------

const (
	capExec = 0.001 // init and exec seconds of every function
	capPool = 16    // warm instances pinned per function
	// capRef is the fixed open-loop rate of the reference phases, in
	// requests per wall second. Each phase lasts capPhaseSecs on a fresh
	// runtime, and together they take two thirds of --seconds. The
	// latency, attainment, cost, heap and CPU metrics come from them. On
	// one long-lived runtime the tail latency rose with the retained
	// per-request state and the GC work it brings, and swung from run to
	// run; at 2000 rps it swung by 40% even in short phases.
	capRef       = 1000.0
	capPhaseSecs = 1.5
	capLimit     = 0.25 // p99 latency limit of a passing phase, seconds
	capSLA       = capLimit
	capGrowth    = 0.1  // backlog, in seconds of arrivals, that fails a phase
	capBacklog   = 2048 // outstanding requests that stop a phase, below capInflight
	capInflight  = 4096 // admission cap, raised so that it never decides a phase
	// capWorkers requests are kept in flight for capSatSecs, on each of
	// capSatRuns fresh runtimes, to measure the saturation throughput.
	capWorkers = 64
	capSatSecs = 1.0
	capSatRuns = 5
	capTimeout = 10 * time.Second
	// capCPUProcs runs the gateway, the runtime and the generator on one
	// P in the phases that measure CPU per request and in the saturation
	// runs: with idle Ps, the Go scheduler's spinning threads add CPU
	// time that varied from run to run by a quarter. The phases that
	// measure latency run on every P the process may use: on one P the
	// collector and the requests shared it, and the p99 of a run read
	// 10 or 15 ms with the speed of the machine at the time.
	capCPUProcs = 1
	// capMaxLagMS bounds the generator's send lag in the reference phases:
	// a tenth of the latency limit, so generator lateness cannot decide a
	// phase.
	capMaxLagMS = capLimit * 1e3 / 10
	// setupReps is how many times set-up is timed before each reference
	// phase and saturation run.
	setupReps = 30
)

// capacityApp has WL3's DAG with every function's init and exec fixed at
// one millisecond, so model time is negligible and the runtime's own cost
// decides the throughput.
func capacityApp() *apps.Application {
	base := experiments.AppByName("WL3")
	specs := make(map[dag.NodeID]*apps.FunctionSpec, len(base.Specs))
	for id, s := range base.Specs {
		specs[id] = &apps.FunctionSpec{
			Name: s.Name, Model: s.Model, Field: s.Field,
			CPUG: capExec, GPUG: capExec, CPUInitMu: capExec, GPUInitMu: capExec,
		}
	}
	return &apps.Application{Name: "WL3-1ms", Graph: base.Graph, Specs: specs}
}

// pinnedDriver keeps a fixed warm pool per function and never re-plans.
type pinnedDriver struct{}

func (pinnedDriver) Name() string { return "pinned" }

func (pinnedDriver) Setup(cp simulator.ControlPlane) {
	for _, id := range cp.App().Graph.Nodes() {
		cp.SetDirective(id, simulator.Directive{
			Config: hardware.Config{Kind: hardware.CPU, Cores: 1}, Policy: coldstart.KeepAlive,
			KeepAlive: 3600, Batch: 1, Instances: capPool, MinWarm: capPool,
		})
		cp.EnsureInstances(id, capPool)
	}
}

func (pinnedDriver) OnWindow(simulator.ControlPlane, float64) {}

func capConfig(seed int64, recorder bool) systemConfig {
	return systemConfig{
		app: capacityApp(), sla: capSLA, seed: seed, recorder: recorder, maxInflight: capInflight,
		driver: func() (simulator.Driver, error) { return pinnedDriver{}, nil },
	}
}

// runStep sends rate requests per second for secs, evenly spaced with a
// seeded phase, waits for every response and returns the sent shots. It
// passes when every request succeeded, the p99 latency is within capLimit
// and the backlog did not grow: when the last request is sent, fewer than
// capGrowth seconds of arrivals are outstanding. A brief stall leaves a
// smaller backlog than that. Sending stops, failing the step, once
// capBacklog requests are outstanding.
func runStep(ctx context.Context, s *session, rate, secs float64, r *rand.Rand) ([]shot, bool) {
	n := int(rate * secs)
	gap := 1e9 / rate
	phase := r.Float64() * gap
	shots := make([]shot, n)
	for i := range shots {
		shots[i].due = int64(phase + float64(i)*gap)
	}
	stop := func(int) bool { return s.gen.outstanding.Load() >= capBacklog }
	sent := s.gen.pace(ctx, clock.Monotonic(), shots, stop)
	backlog := s.gen.outstanding.Load()
	s.gen.wg.Wait()
	shots = shots[:sent]
	if sent < n {
		fmt.Fprintf(os.Stderr, "step %7.0f rps: stopped after %d of %d, backlog reached %d\n", rate, sent, n, capBacklog)
		return shots, false
	}
	lat := make([]float64, len(shots))
	for i := range shots {
		if !shots[i].ok() {
			return shots, false
		}
		lat[i] = shots[i].latency()
	}
	pass := quantile(lat, 0.99) <= capLimit && float64(backlog) < capGrowth*rate
	if !pass {
		fmt.Fprintf(os.Stderr, "step %7.0f rps failed: p99 %.1f ms, backlog %d\n", rate, quantile(lat, 0.99)*1e3, backlog)
	}
	return shots, pass
}

// refPhase is what one reference phase measured: a fresh system serving
// capRef requests per second for capPhaseSecs. It keeps no reference to
// the system, so no earlier phase's runtime stays live during later ones.
type refPhase struct {
	end   sessionEnd
	shots []shot
	pass  bool
	t     tally
	scr   scraper
	lock  lockProbe
	probe *probe
	// retained and spans are the recorder's request and container span
	// counts after Close.
	retained, spans int
}

// runRefPhase starts a fresh system from cfg on procs Ps, after a
// collection so that no earlier phase's garbage is collected during this
// one, and serves one reference phase on it.
func runRefPhase(ctx context.Context, cfg systemConfig, procs int, tr *tracer, r *rand.Rand) (refPhase, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var ph refPhase
	runtime.GC()
	sys, err := cfg.start(tr)
	if err != nil {
		return ph, err
	}
	s := openSession(ctx, sys, tr, capTimeout)
	ph.shots, ph.pass = runStep(ctx, s, capRef, capPhaseSecs, r)
	ph.end, err = s.close()
	ph.scr, ph.lock, ph.probe = s.scr, s.lock, sys.probe
	if sys.rec != nil {
		ph.retained, ph.spans = len(sys.rec.Requests()), len(sys.rec.ContainerSpans())
	}
	if err != nil {
		return ph, err
	}
	ph.t, err = count(ph.shots, ph.end)
	return ph, err
}

// saturate keeps capWorkers requests in flight for capSatSecs on a fresh
// system on capCPUProcs Ps (a closed loop: each worker sends its next request when the last
// one returns). It returns the latencies of the requests completed after
// the first quarter, their completion rate, which is the throughput at
// which the runtime's backlog stops growing, and the outcome of every
// request.
func saturate(ctx context.Context, cfg systemConfig, tr *tracer) ([]float64, float64, tally, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(capCPUProcs))
	runtime.GC()
	sys, err := cfg.start(tr)
	if err != nil {
		return nil, 0, tally{}, err
	}
	s := openSession(ctx, sys, tr, capTimeout)
	start := clock.Monotonic()
	warm := start + int64(capSatSecs/4*1e9)
	stop := start + int64(capSatSecs*1e9)
	shots := make([][]shot, capWorkers)
	var wg sync.WaitGroup
	for w := range shots {
		wg.Add(1)
		go func(mine *[]shot) {
			defer wg.Done()
			for clock.Monotonic() < stop {
				sh := shot{due: clock.Monotonic()}
				sh.sent = sh.due
				s.gen.send(ctx, &sh)
				*mine = append(*mine, sh)
			}
		}(&shots[w])
	}
	wg.Wait()
	var all []shot
	var lat []float64
	for _, mine := range shots {
		for i := range mine {
			if mine[i].done >= warm && mine[i].done < stop {
				lat = append(lat, mine[i].latency())
			}
		}
		all = append(all, mine...)
	}
	end, err := s.close()
	if err != nil {
		return lat, 0, tally{}, err
	}
	t, err := count(all, end)
	return lat, float64(len(lat)) / (float64(stop-warm) / 1e9), t, err
}

// capRun is one serve-capacity measurement: its metrics, the reference
// phases for the traced report, the outcome tally, and notes for the
// human-readable output.
type capRun struct {
	m      metricSet
	phases []refPhase
	t      tally
	notes  []string
}

// measureCap runs refPhases reference phases, alternately measuring
// latency on every P and CPU per request on capCPUProcs, and then
// capSatRuns saturation runs, each on a fresh system. It times set-up in a
// batch before each of them, so that its fastest rep samples the whole run
// (see fastest). Per-phase metrics are combined by a trimmed mean, so one
// phase hit by a stall does not decide the run, except the p99 latency,
// which is that of the best latency phase (see fastest): the host's
// stalls (steal time) land on the tail, and in runs with 1.5–2.2% steal
// the trimmed mean of the per-phase p99 read 22–28% above the median run
// while the best phase read 9–17% above it.
func measureCap(ctx context.Context, seed int64, refPhases int, tr *tracer) (capRun, error) {
	c := capRun{m: newMetricSet()}
	cfg := capConfig(seed, true)
	r := rand.New(rand.NewSource(seed))
	var setups, p50s, p99s, heaps, cpus, l []float64
	wall, cost, good := 0.0, 0.0, 0
	var err error
	all := runtime.GOMAXPROCS(0)
	for i := 0; i < refPhases; i++ {
		if setups, err = serveSetup(cfg, tr, setups); err != nil {
			return c, err
		}
		cpuPhase := i%2 == 1
		procs := all
		if cpuPhase {
			procs = capCPUProcs
		}
		ph, err := runRefPhase(ctx, cfg, procs, tr, r)
		c.t = c.t.add(ph.t)
		if err != nil {
			return c, err
		}
		if !ph.pass {
			return c, fmt.Errorf("reference phase %d at %.0f rps did not pass", i, capRef)
		}
		c.phases = append(c.phases, ph)
		lat := make([]float64, len(ph.shots))
		for j := range ph.shots {
			lat[j] = ph.shots[j].latency()
			if ph.shots[j].ok() && lat[j] <= capSLA {
				good++
			}
		}
		if cpuPhase {
			cpus = append(cpus, ph.end.cpu/float64(len(ph.shots)))
		} else {
			p50s = append(p50s, quantile(lat, 0.5))
			p99s = append(p99s, quantile(lat, 0.99))
		}
		heaps = append(heaps, ph.end.heapMB)
		l = append(l, lags(ph.shots)...)
		wall += ph.end.wall
		cost += ph.end.cost
	}
	refSent := c.t.sent
	var rates, satLat []float64
	for i := 0; i < capSatRuns; i++ {
		if setups, err = serveSetup(cfg, tr, setups); err != nil {
			return c, err
		}
		lat, rate, t, err := saturate(ctx, cfg, tr)
		c.t = c.t.add(t)
		if err != nil {
			return c, err
		}
		rates = append(rates, rate)
		satLat = append(satLat, lat...)
	}
	if c.t.ok != c.t.sent {
		return c, fmt.Errorf("%d of %d requests did not succeed", c.t.sent-c.t.ok, c.t.sent)
	}
	m := c.m
	m.add("setup_s", fastest(setups), "s")
	m.add("eval_s", wall, "s")
	m.add("lat_p50_ms", trimmedMean(p50s)*1e3, "ms")
	m.add("lat_p99_ms", fastest(p99s)*1e3, "ms")
	m.add("sla_attain", float64(good)/float64(refSent), "ratio")
	m.add("cost_per_1k_usd", cost/float64(refSent)*1000, "usd")
	m.add("heap_mb", trimmedMean(heaps), "MiB")
	m.add("cpu_us_per_req", trimmedMean(cpus)*1e6, "us")
	m.add("max_rps", trimmedMean(rates), "1/s")
	c.notes = append(c.notes,
		fmt.Sprintf("latency samples: %d requests in each of %d latency phases (of %d reference phases)", refSent/refPhases, len(p99s), refPhases),
		fmt.Sprintf("saturation, %d in flight: %d requests, p50 %.2f ms, p99 %.2f ms",
			capWorkers, len(satLat), quantile(satLat, 0.5)*1e3, quantile(satLat, 0.99)*1e3))
	if lag := quantile(l, 0.99) * 1e3; lag > capMaxLagMS {
		return c, fmt.Errorf("generator fell behind: send lag p99 %.2f ms > %.0f ms, run invalid", lag, capMaxLagMS)
	}
	return c, nil
}

// serveCapacity measures the gateway + runtime on a wall clock with a
// pinned warm pool, 1 ms functions and the recorder attached: fixed-rate
// open-loop reference phases, then the saturation throughput.
func serveCapacity(seed int64, seconds float64, traced bool) outcome {
	out := outcome{metrics: newMetricSet()}
	ctx := context.Background()
	refPhases := 2 * max(2, int(math.Round(seconds/3/capPhaseSecs)))
	base, err := measureCap(ctx, seed, refPhases, nil)
	out.attempted, out.failed = base.t.sent, base.t.failed+base.t.rejected+base.t.timedOut
	if err != nil {
		out.check = err
		return out
	}
	if !traced {
		out.metrics, out.notes = base.m, base.notes
		return out
	}
	tr := &tracer{}
	run, err := measureCap(ctx, seed, refPhases, tr)
	out.attempted += run.t.sent
	out.failed += run.t.failed + run.t.rejected + run.t.timedOut
	if err != nil {
		out.check = err
		return out
	}
	initLayers(out.metrics)
	gatewayLayers(out.metrics, run.phases)
	probes := make([]*probe, len(run.phases))
	for i, ph := range run.phases {
		probes[i] = ph.probe
	}
	layerMetrics(out.metrics, probes, 0)
	perReq, n, err := recorderCost(ctx, seed)
	out.attempted += n
	if err != nil {
		out.check = err
		return out
	}
	out.metrics.add("tracing.recorder_cpu_us_per_req", perReq, "us")
	overhead(out.metrics, run.m, base.m)
	if err := tr.write(spanDir, fmt.Sprintf("spans-serve-capacity-%d.json", seed)); err != nil {
		out.check = err
	}
	return out
}

// recorderCost runs reference phases alternately with and without the
// recorder and returns the CPU per request the recorder adds, in µs (the
// median with minus the median without), and how many requests it sent.
func recorderCost(ctx context.Context, seed int64) (float64, int, error) {
	var cpu [2][]float64
	sent := 0
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		ph, err := runRefPhase(ctx, capConfig(seed, i%2 == 0), capCPUProcs, nil, r)
		sent += ph.t.sent
		if err != nil {
			return 0, sent, err
		}
		cpu[i%2] = append(cpu[i%2], ph.end.cpu/float64(len(ph.shots))*1e6)
	}
	return median(cpu[0]) - median(cpu[1]), sent, nil
}
