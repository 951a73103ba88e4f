package serving

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/simulator"
)

// testChain builds a linear DAG whose specs are noise-free: function i
// executes in exactly execLat[i] seconds on any config and cold-starts in
// exactly initLat seconds, so fake-clock tests can assert end-to-end
// latencies to float precision.
func testChain(execLat []float64, initLat float64) *apps.Application {
	g := dag.New()
	specs := make(map[dag.NodeID]*apps.FunctionSpec)
	var prev dag.NodeID
	for i, lat := range execLat {
		id := dag.NodeID(fmt.Sprintf("F%d", i+1))
		g.MustAddNode(id, "test")
		if i > 0 {
			g.MustAddEdge(prev, id)
		}
		specs[id] = &apps.FunctionSpec{
			Name: string(id), Model: "test", Field: "test",
			CPUG: lat, GPUG: lat,
			CPUInitMu: initLat, GPUInitMu: initLat,
		}
		prev = id
	}
	return &apps.Application{Name: "test-chain", Graph: g, Specs: specs}
}

// staticDriver installs one directive per function at Setup and does
// nothing per window.
type staticDriver struct {
	dir func(id dag.NodeID) simulator.Directive
}

func (d *staticDriver) Name() string { return "static" }
func (d *staticDriver) Setup(cp simulator.ControlPlane) {
	for _, id := range cp.App().Graph.Nodes() {
		cp.SetDirective(id, d.dir(id))
	}
}
func (d *staticDriver) OnWindow(cp simulator.ControlPlane, now float64) {}

func keepAliveDriver(batch int) *staticDriver {
	return &staticDriver{dir: func(id dag.NodeID) simulator.Directive {
		return simulator.Directive{
			Config:    hardware.Config{Kind: hardware.CPU, Cores: 4},
			Policy:    coldstart.KeepAlive,
			KeepAlive: 60,
			Batch:     batch,
			Instances: 2,
		}
	}}
}

// stepUntil drives a fake-clock runtime: whenever the runtime has fully
// reacted to the current time (Quiesced), advance to the next timer
// deadline; repeat until cond holds. Each event is therefore handled
// exactly at its deadline.
func stepUntil(t *testing.T, rt *Runtime, fake *clock.Fake, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("stepUntil: condition not reached by model time %v", fake.Now())
		}
		if rt.Quiesced() {
			// The events that just quiesced may have met cond (a result
			// sent before the runtime went to sleep): re-check it before
			// moving time on, or the caller acts one deadline late.
			if cond() {
				return
			}
			if !fake.AdvanceToNext() {
				time.Sleep(20 * time.Microsecond)
			}
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// await steps the clock until the invocation resolves.
func await(t *testing.T, rt *Runtime, fake *clock.Fake, ch <-chan Result) Result {
	t.Helper()
	var res Result
	got := false
	stepUntil(t, rt, fake, func() bool {
		select {
		case res = <-ch:
			got = true
		default:
		}
		return got
	})
	return res
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func newTestRuntime(t *testing.T, cfg Config, driver simulator.Driver) (*Runtime, *clock.Fake) {
	t.Helper()
	fake := clock.NewFake()
	cfg.Clock = fake
	rt, err := New(cfg, driver)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	return rt, fake
}

func TestColdThenWarmRequest(t *testing.T) {
	app := testChain([]float64{0.1, 0.2, 0.3}, 1.0)
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10}, keepAliveDriver(1))

	ch, err := rt.Invoke(context.Background())
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	res := await(t, rt, fake, ch)
	// Fully cold: every stage pays its init then its execution.
	want := 3*1.0 + 0.1 + 0.2 + 0.3
	if !near(res.E2E, want, 1e-9) {
		t.Errorf("cold E2E = %v, want %v", res.E2E, want)
	}
	if res.Failed || res.SLAViolated {
		t.Errorf("cold request: Failed=%v SLAViolated=%v", res.Failed, res.SLAViolated)
	}

	// All three instances stay warm under keep-alive: the second request
	// pays execution only.
	ch2, err := rt.Invoke(context.Background())
	if err != nil {
		t.Fatalf("second Invoke: %v", err)
	}
	res2 := await(t, rt, fake, ch2)
	if want := 0.6; !near(res2.E2E, want, 1e-9) {
		t.Errorf("warm E2E = %v, want %v", res2.E2E, want)
	}

	st := rt.Snapshot()
	if st.Completed != 2 || st.Inits != 3 || st.WarmStarts != 3 {
		t.Errorf("stats: Completed=%d Inits=%d WarmStarts=%d, want 2/3/3",
			st.Completed, st.Inits, st.WarmStarts)
	}
	if st.Violations != 0 {
		t.Errorf("Violations = %d, want 0", st.Violations)
	}

	// Keep-alive expiry reaps all three instances 60 idle seconds later.
	stepUntil(t, rt, fake, func() bool {
		total := 0
		for _, n := range rt.LiveContainers() {
			total += n
		}
		return total == 0
	})
	if cost := rt.LiveCost(); cost != 0 {
		t.Errorf("LiveCost after reap = %v, want 0", cost)
	}
	if rt.Snapshot().TotalCost <= 0 {
		t.Error("terminated containers accrued no cost")
	}
}

func TestMinWarmFloor(t *testing.T) {
	app := testChain([]float64{0.5}, 1.0)
	driver := &staticDriver{dir: func(id dag.NodeID) simulator.Directive {
		return simulator.Directive{
			Config: hardware.Config{Kind: hardware.CPU, Cores: 4},
			Policy: coldstart.KeepAlive, KeepAlive: 5,
			Batch: 1, Instances: 2, MinWarm: 1,
		}
	}}
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10}, driver)

	res := mustInvoke(t, rt)
	_ = await(t, rt, fake, res)
	// Idle timeouts keep re-arming at the MinWarm floor: the instance must
	// still be live long after the 5s keep-alive.
	stepUntil(t, rt, fake, func() bool { return fake.Now() > 30 })
	if n := rt.LiveContainers()["F1"]; n != 1 {
		t.Errorf("live F1 instances = %d, want MinWarm floor of 1", n)
	}
}

func mustInvoke(t *testing.T, rt *Runtime) <-chan Result {
	t.Helper()
	ch, err := rt.Invoke(context.Background())
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	return ch
}

func TestBatchLingerWindow(t *testing.T) {
	app := testChain([]float64{0.5}, 1.0)
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10, BatchLinger: 0.3}, keepAliveDriver(2))

	// Warm-up: the cold request pays init + exec with no linger (no idle
	// instance exists, so dispatch goes through the launch path).
	res0 := await(t, rt, fake, mustInvoke(t, rt))
	if want := 1.5; !near(res0.E2E, want, 1e-9) {
		t.Fatalf("cold E2E = %v, want %v", res0.E2E, want)
	}

	// A lone request against an idle warm instance is held for the full
	// aggregation window, then dispatched as a partial batch.
	resA := await(t, rt, fake, mustInvoke(t, rt))
	if want := 0.3 + 0.5; !near(resA.E2E, want, 1e-9) {
		t.Errorf("lingered E2E = %v, want %v", resA.E2E, want)
	}

	// Two requests arriving together fill the batch: dispatch is immediate
	// and both finish in one execution.
	chB := mustInvoke(t, rt)
	chC := mustInvoke(t, rt)
	resB := await(t, rt, fake, chB)
	resC := await(t, rt, fake, chC)
	for _, r := range []Result{resB, resC} {
		if want := 0.5; !near(r.E2E, want, 1e-9) {
			t.Errorf("full-batch E2E = %v, want %v", r.E2E, want)
		}
	}

	st := rt.Snapshot()
	if st.Executions != 3 || st.BatchSum != 4 {
		t.Errorf("Executions=%d BatchSum=%d, want 3 and 4 (batches of 1,1,2)",
			st.Executions, st.BatchSum)
	}
}

func TestReactivePrewarmOverlapsUpstream(t *testing.T) {
	app := testChain([]float64{0.1, 0.2, 0.3}, 1.0)
	driver := &staticDriver{dir: func(id dag.NodeID) simulator.Directive {
		d := simulator.Directive{
			Config: hardware.Config{Kind: hardware.CPU, Cores: 4},
			Policy: coldstart.KeepAlive, KeepAlive: 60,
			Batch: 1, Instances: 2,
		}
		if id == "F2" {
			// Pre-warm F2 on arrival, timed for its input at +0.1s with a
			// 1s estimated init: initialization starts immediately and
			// completes before F1's output lands.
			d.PrewarmOnArrival = true
			d.PathOffset = 0.1
			d.PrewarmLead = 1.0
		}
		return d
	}}
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10}, driver)

	res := await(t, rt, fake, mustInvoke(t, rt))
	// F1 cold (1.0+0.1); F2's init overlapped F1 entirely, so it only pays
	// exec (0.2); F3 cold (1.0+0.3).
	want := 1.0 + 0.1 + 0.2 + 1.0 + 0.3
	if !near(res.E2E, want, 1e-9) {
		t.Errorf("E2E with reactive pre-warm = %v, want %v", res.E2E, want)
	}
}

func TestExecFaultRetriesThenFails(t *testing.T) {
	app := testChain([]float64{0.5}, 1.0)
	driver := &staticDriver{dir: func(id dag.NodeID) simulator.Directive {
		return simulator.Directive{
			Config: hardware.Config{Kind: hardware.CPU, Cores: 4},
			Policy: coldstart.KeepAlive, KeepAlive: 60,
			Batch: 1, Instances: 2,
			Retry: faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 0.2},
		}
	}}
	plan := &faults.Plan{
		PerFunction: map[string]faults.Rates{"F1": {ExecFail: 1}},
		Seed:        7,
	}
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10, Faults: plan}, driver)

	res := await(t, rt, fake, mustInvoke(t, rt))
	if !res.Failed {
		t.Fatalf("request should fail after exhausting retries, got %+v", res)
	}
	st := rt.Snapshot()
	if st.ExecFailures != 2 || st.Retries != 1 || st.FailedInvocations != 1 {
		t.Errorf("ExecFailures=%d Retries=%d FailedInvocations=%d, want 2/1/1",
			st.ExecFailures, st.Retries, st.FailedInvocations)
	}
	if got := rt.Inflight(); got != 0 {
		t.Errorf("Inflight after failure = %d, want 0", got)
	}
}

func TestAdmissionControlAndLifecycle(t *testing.T) {
	app := testChain([]float64{0.5}, 1.0)
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10, MaxInflight: 1}, keepAliveDriver(1))

	ch := mustInvoke(t, rt)
	if _, err := rt.Invoke(context.Background()); err != ErrOverloaded {
		t.Errorf("second Invoke err = %v, want ErrOverloaded", err)
	}
	if got := rt.Rejected(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	_ = await(t, rt, fake, ch)

	// Drain with nothing inflight resolves immediately; afterwards the
	// runtime refuses new work.
	if err := rt.Drain(time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !rt.Draining() {
		t.Error("Draining() = false after Drain")
	}
	if _, err := rt.Invoke(context.Background()); err != ErrDraining {
		t.Errorf("Invoke while draining err = %v, want ErrDraining", err)
	}
	rt.Close()
	if _, err := rt.Invoke(context.Background()); err != ErrClosed {
		t.Errorf("Invoke after Close err = %v, want ErrClosed", err)
	}
}

func TestWindowCadenceAndCounts(t *testing.T) {
	app := testChain([]float64{0.1}, 1.0)
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10, Window: 1}, keepAliveDriver(1))

	chA := mustInvoke(t, rt)
	chB := mustInvoke(t, rt)
	_ = await(t, rt, fake, chA)
	_ = await(t, rt, fake, chB)
	stepUntil(t, rt, fake, func() bool { return len(rt.CountsHistoryLocked()) >= 3 })
	counts := rt.CountsHistoryLocked()
	if counts[0] != 2 {
		t.Errorf("first window count = %d, want 2", counts[0])
	}
	for _, c := range counts[1:] {
		if c != 0 {
			t.Errorf("later window counts = %v, want zeros after index 0", counts)
			break
		}
	}
	if got := len(rt.ArrivalTimesLocked()); got != 2 {
		t.Errorf("arrival times = %d, want 2", got)
	}
}

// viewCheckDriver appends to the driver-facing history views on every
// window and counts windows whose views had spare capacity.
type viewCheckDriver struct {
	staticDriver
	windows, uncapped atomic.Int64
}

func (d *viewCheckDriver) OnWindow(cp simulator.ControlPlane, now float64) {
	arr, counts := cp.ArrivalTimes(), cp.CountsHistory()
	if cap(arr) != len(arr) || cap(counts) != len(counts) {
		d.uncapped.Add(1)
	}
	_ = append(arr, -1)
	_ = append(counts, -1)
	d.windows.Add(1)
}

// TestHistoryViewsCappedAndLockedCopies: the driver-facing ArrivalTimes and
// CountsHistory are views with cap == len, so a driver append reallocates;
// the …Locked accessors hand data past rt.mu and so return copies that a
// caller may mutate without touching the runtime.
func TestHistoryViewsCappedAndLockedCopies(t *testing.T) {
	app := testChain([]float64{0.1}, 1.0)
	d := &viewCheckDriver{staticDriver: *keepAliveDriver(1)}
	rt, fake := newTestRuntime(t, Config{App: app, SLA: 10, Window: 1}, d)

	for i := 0; i < 3; i++ {
		_ = await(t, rt, fake, mustInvoke(t, rt))
	}
	stepUntil(t, rt, fake, func() bool { return d.windows.Load() >= 3 })
	if n := d.uncapped.Load(); n != 0 {
		t.Errorf("%d windows saw a history view with spare capacity", n)
	}

	arr, counts := rt.ArrivalTimesLocked(), rt.CountsHistoryLocked()
	if len(arr) != 3 || len(counts) == 0 {
		t.Fatalf("history: %d arrivals, %d windows", len(arr), len(counts))
	}
	wantArr := append([]float64(nil), arr...)
	wantCounts := append([]int(nil), counts...)
	for i := range arr {
		arr[i] = -1
	}
	for i := range counts {
		counts[i] = -1
	}
	rt.mu.Lock()
	gotArr := append([]float64(nil), rt.ex.ArrivalTimes()...)
	gotCounts := append([]int(nil), rt.ex.CountsHistory()[:len(wantCounts)]...)
	rt.mu.Unlock()
	if !slices.Equal(gotArr, wantArr) || !slices.Equal(gotCounts, wantCounts) {
		t.Errorf("mutating the …Locked results changed the runtime: arrivals %v (want %v), counts %v (want %v)",
			gotArr, wantArr, gotCounts, wantCounts)
	}
}

func TestConfigValidation(t *testing.T) {
	driver := keepAliveDriver(1)
	app := testChain([]float64{0.1}, 1.0)
	cases := []Config{
		{},                          // no app
		{App: app, SLA: -1},         // negative SLA
		{App: app, Window: -1},      // negative window
		{App: app, BatchLinger: -1}, // negative linger
	}
	for i, cfg := range cases {
		if _, err := New(cfg, driver); err == nil {
			t.Errorf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := New(Config{App: app}, nil); err == nil {
		t.Error("New accepted nil driver")
	}
}
