package serving

import (
	"fmt"
	"reflect"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/coldstart"
	"smiless/internal/controller"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// diffArrivals is the shared trace of the cross-substrate test: 120
// arrivals with exponential gaps (mean 0.5 s).
func diffArrivals() []float64 {
	r := mathx.NewRand(11)
	out := make([]float64, 120)
	at := 0.0
	for i := range out {
		at += r.ExpFloat64() * 0.5
		out[i] = at
	}
	return out
}

// advanceExactly moves the fake clock to exactly t, which no pending timer
// precedes. A single Advance(t-now) can land an ulp off t; halving the
// step until the remaining gap is exact (now >= t/2 makes t-now exact)
// lands on t bit for bit.
func advanceExactly(fake *clock.Fake, t float64) {
	for now := fake.Now(); now < t; now = fake.Now() {
		d := t - now
		if now+d == t { //lint:allow floateq the step must land on the arrival bit for bit
			fake.Advance(d)
			return
		}
		fake.Advance(d / 2)
	}
}

// serveTrace replays arrivals through a fake-clock runtime: every event due
// before an arrival is handled at its own deadline, then the request is
// admitted at exactly its arrival time. It returns the final statistics
// and each request's result in arrival order.
func serveTrace(t *testing.T, cfg Config, drv simulator.Driver, arrivals []float64) (*simulator.RunStats, []Result) {
	t.Helper()
	rt, fake := newTestRuntime(t, cfg, drv)
	chans := make([]<-chan Result, len(arrivals))
	for i, at := range arrivals {
		for {
			waitQuiesced(t, rt)
			next, ok := fake.NextDeadline()
			if !ok || next >= at {
				break
			}
			fake.AdvanceToNext()
		}
		advanceExactly(fake, at)
		chans[i] = mustInvoke(t, rt)
	}
	results := make([]Result, len(arrivals))
	for i, ch := range chans {
		results[i] = await(t, rt, fake, ch)
	}
	st := rt.Snapshot()
	rt.Close()
	return st, results
}

// diffStaticDriver is the static keep-alive system of the differential
// test, with a retry policy and hedging so injected faults exercise the
// recovery paths.
func diffStaticDriver() simulator.Driver {
	return &staticDriver{dir: func(id dag.NodeID) simulator.Directive {
		return simulator.Directive{
			Config:    hardware.Config{Kind: hardware.CPU, Cores: 4},
			Policy:    coldstart.KeepAlive,
			KeepAlive: 30,
			Batch:     2,
			Instances: 3,
			Retry: faults.RetryPolicy{
				MaxAttempts: 3, Timeout: 8, BaseBackoff: 0.1, MaxBackoff: 1, JitterFrac: 0.5,
			},
			HedgeDelay: 2,
		}
	}}
}

// TestSimulatorAndServingAgree runs one seeded trace through the
// discrete-event simulator and through the fake-clock serving runtime,
// under the SMIless controller and a static keep-alive driver, each with
// and without injected faults. Both substrates must produce the same
// per-request outcomes (end-to-end latency bit for bit, and the failed
// flag) and the same lifecycle counters. The simulator's trace horizon runs
// 20 s past the last arrival: its decision windows stop at the horizon
// while the runtime's never do, so a horizon at the last arrival would let
// the tail of requests finish under different directives.
func TestSimulatorAndServingAgree(t *testing.T) {
	app := apps.ImageQuery()
	arrivals := diffArrivals()
	horizon := arrivals[len(arrivals)-1] + 20
	const sla, window, seed = 3.0, 1.0, 11
	plan := &faults.Plan{Default: faults.Rates{
		InitFail: 0.05, ExecFail: 0.03, Straggler: 0.05, StragglerFactor: 6,
	}}
	drivers := map[string]func() simulator.Driver{
		"smiless": func() simulator.Driver {
			return controller.New(hardware.DefaultCatalog(), app.TrueProfiles(perfmodel.DefaultUncertainty),
				sla, controller.Options{Seed: 3, Parallelism: 1})
		},
		"static": diffStaticDriver,
	}
	for _, name := range []string{"smiless", "static"} {
		for _, p := range []*faults.Plan{nil, plan} {
			t.Run(fmt.Sprintf("%s/faults=%t", name, p != nil), func(t *testing.T) {
				sim, err := simulator.New(simulator.Config{
					App: app, SLA: sla, Window: window, Seed: seed, Faults: p,
				}, drivers[name]())
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.Run(&trace.Trace{Horizon: horizon, Arrivals: arrivals})
				if err != nil {
					t.Fatal(err)
				}
				got, results := serveTrace(t, Config{
					App: app, SLA: sla, Window: window, Seed: seed, Faults: p,
				}, drivers[name](), arrivals)

				// Per-request outcomes: the simulator records successful
				// requests only, keyed here by arrival time.
				simE2E := make(map[float64]float64, len(want.E2E))
				for i, a := range want.E2EArrival {
					simE2E[a] = want.E2E[i]
				}
				for i, res := range results {
					e2e, ok := simE2E[arrivals[i]]
					if res.Failed != !ok {
						t.Fatalf("request %d at %.6f: serving failed=%t, simulator failed=%t", i, arrivals[i], res.Failed, !ok)
					}
					if ok && res.E2E != e2e { //lint:allow floateq the substrates must agree bit for bit
						t.Fatalf("request %d at %.6f: serving E2E %.12f, simulator %.12f", i, arrivals[i], res.E2E, e2e)
					}
				}
				counters := func(st *simulator.RunStats) [7]int {
					return [7]int{st.Inits, st.WarmStarts, st.Executions, st.Retries,
						st.HedgesLaunched, st.FailedInvocations, st.Violations}
				}
				if cw, cg := counters(want), counters(got); !reflect.DeepEqual(cw, cg) {
					t.Errorf("counters [Inits WarmStarts Executions Retries HedgesLaunched FailedInvocations Violations]: simulator %v, serving %v", cw, cg)
				}
				if p != nil && want.InitFailures+want.ExecFailures == 0 {
					t.Error("fault plan injected nothing; the faulted case is vacuous")
				}
			})
		}
	}
}
