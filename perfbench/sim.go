package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/controller"
	"smiless/internal/dag"
	"smiless/internal/experiments"
	"smiless/internal/simulator"
	"smiless/internal/trace"
	"smiless/internal/tracing"
)

// simSLA is the end-to-end SLA of the simulator workloads (the paper's
// default, as smiless-sim uses it).
const simSLA = 2.0

// simSpec is one simulator workload: which apps run SMIless on which
// seeded trace, how much wall time one job is budgeted at, which sizes
// the number of jobs from --seconds, and how many times set-up is timed
// before each job.
type simSpec struct {
	name     string
	apps     func() []*apps.Application
	trace    func(seed int64) *trace.Trace
	lstm     bool
	jobSecs  float64
	setupRep int
}

// simPaper is the Fig. 8 job: SMIless with the moving-window predictor on
// WL1, WL2, WL3 and FanOut8x4, each over one seeded 2-hour Azure-like
// trace.
func simPaper(seed int64, seconds float64, traced bool) outcome {
	return runSim(simSpec{
		name: "sim-paper",
		apps: func() []*apps.Application {
			return []*apps.Application{
				experiments.AppByName("WL1"), experiments.AppByName("WL2"),
				experiments.AppByName("WL3"), fanOut(8, 4),
			}
		},
		trace:    func(s int64) *trace.Trace { return experiments.EvalTrace(s, 7200) },
		jobSecs:  2,
		setupRep: 7,
	}, seed, seconds, traced)
}

// simLSTM is SMIless with the paper's trained LSTM predictor pair on WL2,
// long enough for training to fire. The arrivals are Poisson at the
// Azure-like trace's mean rate: the bursts of the Azure-like trace change
// how often the drift detector forces a refit so much from seed to seed
// that neither the run time nor the tail latency of a run would be steady.
func simLSTM(seed int64, seconds float64, traced bool) outcome {
	return runSim(simSpec{
		name:     "sim-lstm",
		apps:     func() []*apps.Application { return []*apps.Application{experiments.AppByName("WL2")} },
		trace:    func(s int64) *trace.Trace { return trace.Poisson(rand.New(rand.NewSource(s)), lstmRate, lstmHorizon) },
		lstm:     true,
		jobSecs:  5,
		setupRep: 50,
	}, seed, seconds, traced)
}

// lstmRate and lstmHorizon shape the sim-lstm arrivals: requests per
// model second, and the trace length, which is past the controller's
// 200-arrival training threshold on every seed, so each job fits the
// forecasters and then predicts every window.
const (
	lstmRate    = 0.25
	lstmHorizon = 1000
)

// fanOut builds the 8-branch × 4-deep synthetic app of bench_test.go: one
// OD entry fanning out into chains of Table I functions. Nodes are added
// in a fixed order; smiless.NewApplication takes a map and so inserts them
// in random order, which makes whole runs differ from process to process
// (see README.md).
func fanOut(branches, depth int) *apps.Application {
	g := dag.New()
	specs := map[dag.NodeID]*apps.FunctionSpec{}
	names := []string{"IR", "FR", "HAP", "DB", "NER", "TM", "TRS", "TG"}
	root := dag.NodeID("entry")
	g.MustAddNode(root, apps.Functions["OD"].Model)
	specs[root] = apps.Functions["OD"]
	for br := 0; br < branches; br++ {
		prev := root
		for d := 0; d < depth; d++ {
			id := dag.NodeID(fmt.Sprintf("b%dd%d", br, d))
			fn := apps.Functions[names[(br+d)%len(names)]]
			g.MustAddNode(id, fn.Model)
			specs[id] = fn
			g.MustAddEdge(prev, id)
			prev = id
		}
	}
	return &apps.Application{Name: fmt.Sprintf("FanOut%dx%d", branches, depth), Graph: g, Specs: specs}
}

// jobSeed derives the trace seed of job k from the run seed.
func jobSeed(seed int64, k int) int64 { return seed*7919 + int64(k)*104729 }

// simJob is one job's result: per-app statistics plus the pooled numbers
// the end-to-end metrics are built from.
type simJob struct {
	stats    []*simulator.RunStats
	arrivals int // trace arrivals over all apps
	measured int // arrivals after the warm-up, over all apps
	wall     float64
	cpu      float64
	e2e      []float64
	ok       int // measured requests completed within the SLA
	cost     float64
	heapMB   float64 // peak heap in use during the job
}

// runJob runs every app of spec on one seeded trace. A non-nil mkProbe
// wraps each app's driver and forecaster in timing spans.
func runJob(spec simSpec, ts int64, tr *tracer, mkProbe func() *probe) (job simJob, err error) {
	t := spec.trace(ts)
	heap := startHeapSampler()
	defer func() { job.heapMB = heap.finish() }()
	cpu0 := cpuSeconds()
	start := clock.Monotonic()
	for _, app := range spec.apps() {
		var st *simulator.RunStats
		if mkProbe == nil {
			st, err = experiments.Run(experiments.SysSMIless, experiments.RunParams{
				App: app, SLA: simSLA, Seed: ts, UseLSTM: spec.lstm,
			}, t)
		} else {
			st, err = runTraced(spec, app, ts, t, tr, mkProbe())
		}
		if err != nil {
			return job, fmt.Errorf("%s: %w", app.Name, err)
		}
		if st.Completed+st.FailedInvocations != t.Len() {
			return job, fmt.Errorf("%s: %d completed + %d failed of %d arrivals", app.Name, st.Completed, st.FailedInvocations, t.Len())
		}
		warm := experiments.WarmupFor(t)
		measured := 0
		for _, a := range t.Arrivals {
			if a >= warm {
				measured++
			}
		}
		job.stats = append(job.stats, st)
		job.arrivals += t.Len()
		job.measured += measured
		job.e2e = append(job.e2e, st.E2E...)
		job.ok += len(st.E2E) - st.Violations
		job.cost += st.TotalCost
	}
	job.wall = float64(clock.Monotonic()-start) / 1e9
	job.cpu = cpuSeconds() - cpu0
	return job, nil
}

// runTraced runs one app with the timing wrappers: the same driver
// experiments.Run builds, but with a forecaster constructor that times
// every call and a ControlPlane that hands the controller a private
// recorder, so the simulator itself stays untraced.
func runTraced(spec simSpec, app *apps.Application, ts int64, t *trace.Trace, tr *tracer, p *probe) (*simulator.RunStats, error) {
	opts := controller.DefaultOptions(ts)
	opts.UseLSTM = spec.lstm
	ctor, err := p.forecaster()
	if err != nil {
		return nil, err
	}
	opts.NewForecaster = ctor
	drv, err := experiments.NewDriver(experiments.SysSMIless, experiments.RunParams{
		App: app, SLA: simSLA, Seed: ts, UseLSTM: spec.lstm, Controller: &opts,
	})
	if err != nil {
		return nil, err
	}
	p.rec = tracing.NewRecorder(app.Graph)
	sim, err := simulator.New(simulator.Config{
		App: app, SLA: simSLA, Seed: ts, StatsAfter: experiments.WarmupFor(t),
	}, p.driver(drv))
	if err != nil {
		return nil, err
	}
	p.root = tr.begin("simulator.run", 0, -1)
	defer tr.end(p.root)
	return sim.Run(t)
}

// simSetup times building SMIless and the simulator for each app and
// running the driver's Setup, which computes the first plan, on a fresh
// simulator, reps times, and returns the time of each rep.
func simSetup(spec simSpec, ts int64, reps int, tr *tracer) ([]float64, error) {
	var totals []float64
	for r := 0; r < reps; r++ {
		total := 0.0
		for _, app := range spec.apps() {
			start := clock.Monotonic()
			p := newProbe(tr, tr.begin("simulator.setup", 0, -1))
			opts := controller.DefaultOptions(ts)
			opts.UseLSTM = spec.lstm
			if tr != nil {
				ctor, err := p.forecaster()
				if err != nil {
					return nil, err
				}
				opts.NewForecaster = ctor
			}
			drv, err := experiments.NewDriver(experiments.SysSMIless, experiments.RunParams{
				App: app, SLA: simSLA, Seed: ts, UseLSTM: spec.lstm, Controller: &opts,
			})
			if err != nil {
				return nil, err
			}
			if tr != nil {
				drv = p.driver(drv)
			}
			sim, err := simulator.New(simulator.Config{App: app, SLA: simSLA, Seed: ts}, drv)
			if err != nil {
				return nil, err
			}
			drv.Setup(sim)
			tr.end(p.root)
			total += float64(clock.Monotonic()-start) / 1e9
		}
		totals = append(totals, total)
	}
	return totals, nil
}

// simRun is the measured part of one sim workload run.
type simRun struct {
	jobs  []simJob
	setup float64
}

func measureSim(spec simSpec, seed int64, jobs int, tr *tracer, probes *[]*probe) (simRun, error) {
	var r simRun
	var mk func() *probe
	if tr != nil {
		mk = func() *probe {
			p := newProbe(tr, 0)
			*probes = append(*probes, p)
			return p
		}
	}
	// Set-up is timed in a batch before every job rather than all at
	// once, so that its fastest rep samples the whole run (see fastest).
	var setups []float64
	for k := 0; k < jobs; k++ {
		reps, err := simSetup(spec, jobSeed(seed, k), spec.setupRep, tr)
		if err != nil {
			return r, err
		}
		setups = append(setups, reps...)
		job, err := runJob(spec, jobSeed(seed, k), tr, mk)
		if err != nil {
			return r, err
		}
		r.jobs = append(r.jobs, job)
	}
	r.setup = fastest(setups)
	return r, nil
}

// simMetrics reduces the jobs of one run to the end-to-end metrics: each
// is computed per job and combined by a trimmed mean, so one pathological
// trace does not decide a run.
func simMetrics(r simRun) metricSet {
	var walls, p50s, p99s, attains, costs, heaps, cpus, rates []float64
	for _, j := range r.jobs {
		walls = append(walls, j.wall)
		p50s = append(p50s, quantile(j.e2e, 0.5))
		p99s = append(p99s, quantile(j.e2e, 0.99))
		attains = append(attains, float64(j.ok)/float64(j.measured))
		costs = append(costs, j.cost/float64(j.arrivals)*1000)
		heaps = append(heaps, j.heapMB)
		cpus = append(cpus, j.cpu/float64(j.arrivals))
		rates = append(rates, float64(j.arrivals)/j.wall)
	}
	m := newMetricSet()
	m.add("setup_s", r.setup, "s")
	m.add("eval_s", trimmedMean(walls), "s")
	m.add("lat_p50_ms", trimmedMean(p50s)*1e3, "ms")
	m.add("lat_p99_ms", trimmedMean(p99s)*1e3, "ms")
	m.add("sla_attain", trimmedMean(attains), "ratio")
	m.add("cost_per_1k_usd", trimmedMean(costs), "usd")
	m.add("heap_mb", trimmedMean(heaps), "MiB")
	m.add("cpu_us_per_req", trimmedMean(cpus)*1e6, "us")
	m.add("max_rps", trimmedMean(rates), "1/s")
	return m
}

// sameStats reports whether two runs produced identical statistics. NaN
// fields (an empty forecast-quality horizon) compare equal to themselves.
func sameStats(a, b *simulator.RunStats) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%+v", *a) == fmt.Sprintf("%+v", *b)
}

func checkSame(what string, a, b []*simulator.RunStats) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d vs %d apps", what, len(a), len(b))
	}
	for i := range a {
		if !sameStats(a[i], b[i]) {
			return fmt.Errorf("%s: app %d statistics differ (cost %.9g vs %.9g, completed %d vs %d)",
				what, i, a[i].TotalCost, b[i].TotalCost, a[i].Completed, b[i].Completed)
		}
	}
	return nil
}

func simJobs(spec simSpec, seconds float64) int {
	return int(math.Max(2, math.Round(seconds/spec.jobSecs)))
}

func runSim(spec simSpec, seed int64, seconds float64, traced bool) outcome {
	out := outcome{metrics: newMetricSet()}
	jobs := simJobs(spec, seconds)
	if traced {
		jobs = int(math.Max(1, math.Round(float64(jobs)/2)))
	}
	base, err := measureSim(spec, seed, jobs, nil, nil)
	if err != nil {
		out.check = err
		return out
	}
	for _, j := range base.jobs {
		out.attempted += j.arrivals
	}
	if !traced {
		// Determinism: the first job again, with the same seed, must
		// reproduce every statistic.
		again, err := runJob(spec, jobSeed(seed, 0), nil, nil)
		if err != nil {
			out.check = err
			return out
		}
		if err := checkSame("rerun with the same seed", base.jobs[0].stats, again.stats); err != nil {
			out.check = err
		}
		out.metrics = simMetrics(base)
		measured := 0
		for _, j := range base.jobs {
			measured += len(j.e2e)
		}
		out.notes = append(out.notes, fmt.Sprintf("latency samples: %d measured requests over %d jobs, about %d per job",
			measured, len(base.jobs), measured/len(base.jobs)))
		return out
	}

	tr := &tracer{}
	var probes []*probe
	tracedRun, err := measureSim(spec, seed, jobs, tr, &probes)
	if err != nil {
		out.check = err
		return out
	}
	for k := range base.jobs {
		if err := checkSame(fmt.Sprintf("job %d traced vs untraced", k), base.jobs[k].stats, tracedRun.jobs[k].stats); err != nil {
			out.check = err
			break
		}
	}
	m := out.metrics
	initLayers(m)
	self := tr.selfByName()
	arrivals := 0
	for _, j := range tracedRun.jobs {
		arrivals += j.arrivals
	}
	m.add("simulator.self_s", self["simulator.run"], "s")
	m.add("simulator.self_ns_per_req", self["simulator.run"]/float64(arrivals)*1e9, "ns")
	layerMetrics(m, probes, experiments.WarmupFor(spec.trace(jobSeed(seed, 0))))
	overhead(m, simMetrics(tracedRun), simMetrics(base))
	if err := tr.write(spanDir, fmt.Sprintf("spans-%s-%d.json", spec.name, seed)); err != nil && out.check == nil {
		out.check = err
	}
	return out
}
