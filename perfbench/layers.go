package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"smiless/internal/clock"
	"smiless/internal/forecast"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// span is one timed call into a layer of the program. Times are
// clock.Monotonic nanoseconds; Parent is 0 for a root span and Req is the
// serving request id, or -1 when the call serves no single request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int    `json:"req"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps the spans of a traced run in memory. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no guards.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := clock.Monotonic()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Req: req})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := clock.Monotonic()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].seconds()
}

// record adds an already-timed span (the generator times its requests
// itself and files them once the response is decoded).
func (t *tracer) record(name string, parent, req int, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end, Req: req})
}

// selfSeconds returns each span's duration minus its direct children's.
func (t *tracer) selfSeconds() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.seconds()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.seconds()
		}
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]float64 {
	self := t.selfSeconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += self[i]
	}
	return out
}

// write stores the spans as a JSON array under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// window is one timed driver callback.
type window struct {
	now    float64 // model time of the window; -1 for Setup
	self   float64 // seconds, forecaster child spans removed
	replan bool    // the callback added a "reoptimize" instant
}

// probe is the per-layer instrumentation of one traced run: a driver
// wrapper timing Setup/OnWindow, a forecaster constructor timing
// Fit/Predict/Update, and a scheduler counting armed timers. Driver and
// forecaster calls are serialized by the substrate (the simulator loop, or
// the serving runtime's lock), so only the timer count is shared.
type probe struct {
	tr   *tracer
	root int               // parent of driver callback spans
	rec  *tracing.Recorder // handed to the driver; nil forwards the substrate's
	cur  int               // open driver callback span
	// childSec accumulates forecaster time inside the open callback.
	childSec float64

	windows []window
	reopts  []tracing.Instant

	fit, predict, update []float64
	afters               atomic.Int64
}

func newProbe(tr *tracer, root int) *probe {
	return &probe{tr: tr, root: root}
}

// driver wraps d so that its callbacks are timed.
func (p *probe) driver(d simulator.Driver) simulator.Driver { return &timedDriver{inner: d, p: p} }

type timedDriver struct {
	inner simulator.Driver
	p     *probe
}

func (d *timedDriver) Name() string { return d.inner.Name() }

func (d *timedDriver) Setup(cp simulator.ControlPlane) {
	d.call("controller.setup", cp, -1, func(w simulator.ControlPlane) { d.inner.Setup(w) })
}

func (d *timedDriver) OnWindow(cp simulator.ControlPlane, now float64) {
	d.call("controller.window", cp, now, func(w simulator.ControlPlane) { d.inner.OnWindow(w, now) })
}

func (d *timedDriver) call(name string, cp simulator.ControlPlane, now float64, f func(simulator.ControlPlane)) {
	p := d.p
	w := recorderCP{ControlPlane: cp, rec: p.rec}
	rec := w.TraceRecorder()
	seen := 0
	if rec != nil {
		seen = len(rec.Instants())
	}
	p.cur = p.tr.begin(name, p.root, -1)
	p.childSec = 0
	f(w)
	total := p.tr.end(p.cur)
	win := window{now: now, self: total - p.childSec}
	p.cur = 0
	if rec != nil {
		for _, in := range rec.Instants()[seen:] {
			if in.Name == "reoptimize" {
				win.replan = true
				p.reopts = append(p.reopts, in)
			}
		}
	}
	p.windows = append(p.windows, win)
}

// recorderCP is the ControlPlane a timed driver sees: everything forwards
// to the substrate, except that a probe with its own recorder hands that
// one out. Simulator runs use this to collect the controller's
// "reoptimize" instants without attaching a recorder to the simulator,
// which would add tracing-only fields to RunStats.
type recorderCP struct {
	simulator.ControlPlane
	rec *tracing.Recorder
}

func (c recorderCP) TraceRecorder() *tracing.Recorder {
	if c.rec != nil {
		return c.rec
	}
	return c.ControlPlane.TraceRecorder()
}

// forecaster returns a constructor wrapping the default forecaster family
// with timers, for controller.Options.NewForecaster.
func (p *probe) forecaster() (forecast.Constructor, error) {
	base, err := forecast.Lookup("")
	if err != nil {
		return nil, err
	}
	return func(cfg forecast.Config) forecast.Forecaster { return p.wrapForecaster(base(cfg)) }, nil
}

func (p *probe) wrapForecaster(f forecast.Forecaster) forecast.Forecaster {
	w := &timedForecaster{inner: f, p: p}
	if ub, ok := f.(forecast.UpperBounder); ok {
		return timedUpperBounder{w, ub}
	}
	return w
}

// timed runs f inside a span named name, parented on the open driver
// callback, and appends its duration to into.
func (p *probe) timed(name string, into *[]float64, f func()) {
	id := p.tr.begin(name, p.cur, -1)
	f()
	d := p.tr.end(id)
	*into = append(*into, d)
	p.childSec += d
}

type timedForecaster struct {
	inner forecast.Forecaster
	p     *probe
}

func (f *timedForecaster) Name() string { return f.inner.Name() }

func (f *timedForecaster) Fit(hist []forecast.Observation) error {
	var err error
	f.p.timed("forecast.fit", &f.p.fit, func() { err = f.inner.Fit(hist) })
	return err
}

func (f *timedForecaster) Predict(horizon int) []float64 {
	var out []float64
	f.p.timed("forecast.predict", &f.p.predict, func() { out = f.inner.Predict(horizon) })
	return out
}

func (f *timedForecaster) Update(obs forecast.Observation) {
	f.p.timed("forecast.update", &f.p.update, func() { f.inner.Update(obs) })
}

func (f *timedForecaster) Clone(seed int64) forecast.Forecaster {
	return f.p.wrapForecaster(f.inner.Clone(seed))
}

// timedUpperBounder keeps the UpperBounder capability of the wrapped
// forecaster visible to the controller's quality harness.
type timedUpperBounder struct {
	*timedForecaster
	ub forecast.UpperBounder
}

func (f timedUpperBounder) PredictUpper(horizon int) []float64 {
	var out []float64
	f.p.timed("forecast.predict", &f.p.predict, func() { out = f.ub.PredictUpper(horizon) })
	return out
}

// clock wraps s so that every armed timer is counted.
func (p *probe) clock(s clock.Scheduler) clock.Scheduler { return countingScheduler{s, &p.afters} }

type countingScheduler struct {
	clock.Scheduler
	n *atomic.Int64
}

func (c countingScheduler) After(d float64) <-chan struct{} {
	c.n.Add(1)
	return c.Scheduler.After(d)
}

// layerMetrics fills the controller, core and forecast rows of the traced
// report from the probes of one workload. warmup is the model time before
// which windows are excluded from the growth ratio.
func layerMetrics(out metricSet, probes []*probe, warmup float64) {
	var setups, windows, replans []float64
	var growths []float64
	nodes, hits, misses, memo := 0, 0, 0, 0
	var fit, predict, update []float64
	for _, p := range probes {
		var after []float64
		for _, w := range p.windows {
			if w.now < 0 {
				setups = append(setups, w.self)
			} else {
				windows = append(windows, w.self)
				if w.now >= warmup {
					after = append(after, w.self)
				}
			}
			if w.replan {
				replans = append(replans, w.self)
			}
		}
		if g := growth(after); g > 0 {
			growths = append(growths, g)
		}
		for _, in := range p.reopts {
			args := map[string]string{}
			for _, kv := range in.Args {
				args[kv.Key] = kv.Val
			}
			nodes += atoiOr0(args["nodes_explored"])
			hits += atoiOr0(args["cache_hits"])
			misses += atoiOr0(args["cache_misses"])
			if args["from_cache"] == "true" {
				memo++
			}
		}
		fit = append(fit, p.fit...)
		predict = append(predict, p.predict...)
		update = append(update, p.update...)
	}
	out.add("controller.setup_ms", mean(setups)*1e3, "ms")
	out.add("controller.window_us_p50", quantile(windows, 0.5)*1e6, "us")
	out.add("controller.window_us_p99", quantile(windows, 0.99)*1e6, "us")
	out.add("controller.window_ms_max", maxOf(windows)*1e3, "ms")
	out.add("controller.window_s_total", sum(windows), "s")
	out.add("controller.window_growth", median(growths), "ratio")
	out.add("core.replans", float64(len(replans)), "count")
	out.add("core.replan_ms_total", sum(replans)*1e3, "ms")
	out.add("core.replan_ms_max", maxOf(replans)*1e3, "ms")
	out.add("core.nodes_explored", float64(nodes), "count")
	out.add("core.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	out.add("core.memo_ratio", ratio(float64(memo), float64(len(replans))), "ratio")
	out.add("forecast.fit_calls", float64(len(fit)), "count")
	out.add("forecast.fit_s_total", sum(fit), "s")
	out.add("forecast.fit_s_max", maxOf(fit), "s")
	out.add("forecast.predict_calls", float64(len(predict)), "count")
	out.add("forecast.predict_us_p50", quantile(predict, 0.5)*1e6, "us")
	out.add("forecast.predict_s_total", sum(predict), "s")
	out.add("forecast.update_s_total", sum(update), "s")
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func atoiOr0(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}
