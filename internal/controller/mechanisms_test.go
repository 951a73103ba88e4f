package controller

import (
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// TestIdleModeReleasesFleet: during a long idle phase the warm floor is
// released; traffic resumption restores it.
func TestIdleModeReleasesFleet(t *testing.T) {
	app := apps.ImageQuery()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	drv := New(hardware.DefaultCatalog(), profiles, 2.0, liteOptions(1))
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 2.0, Seed: 1}, drv)
	// Dense lead-in (establishes a short IT), then a 500 s silence, then
	// one more request.
	var arr []float64
	for i := 0; i < 40; i++ {
		arr = append(arr, 10+float64(i)*2)
	}
	arr = append(arr, 600)
	st := sim.MustRun(&trace.Trace{Horizon: 700, Arrivals: arr})
	if st.Completed != len(arr) {
		t.Fatalf("completed %d/%d", st.Completed, len(arr))
	}
	// The observable: the run must cost materially less than keeping the
	// plan's fleet resident for the whole horizon — the idle phase is ~70%
	// of the run, so releasing the floor must show up.
	fullResidency := 0.0
	for _, id := range app.Graph.Nodes() {
		cfg := drv.plan.Configs[id]
		fullResidency += 700 * hardware.DefaultPricing.UnitCost(cfg)
	}
	if st.TotalCost >= fullResidency*0.85 {
		t.Errorf("cost %.4f vs full residency %.4f: idle phase not released", st.TotalCost, fullResidency)
	}
}

// TestSlackBatchRespectsSLA: the steady-state batch bound never lets a
// single function's batched inference blow the plan's slack.
func TestSlackBatchRespectsSLA(t *testing.T) {
	app := apps.ImageQuery()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	drv := New(hardware.DefaultCatalog(), profiles, 2.0, liteOptions(2))
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 2.0, Seed: 2}, drv)
	// Run briefly so a plan exists.
	st := sim.MustRun(&trace.Trace{Horizon: 60, Arrivals: []float64{10, 20, 30}})
	if st.Completed != 3 {
		t.Fatal("setup run incomplete")
	}
	for _, id := range app.Graph.Nodes() {
		b := drv.slackBatch(id, sim)
		if b < 1 {
			t.Errorf("%s: slack batch %d < 1", id, b)
		}
		cfg := drv.plan.Configs[id]
		inflation := profiles[id].InferenceTime(cfg, b) - profiles[id].InferenceTime(cfg, 1)
		if drv.planPath+inflation > 2.0*0.95 {
			t.Errorf("%s: batch %d inflates path to %.2f, too close to the SLA",
				id, b, drv.planPath+inflation)
		}
	}
}

// TestReplanOnRegimeShift: a large sustained change in the mean
// inter-arrival time forces a re-plan.
func TestReplanOnRegimeShift(t *testing.T) {
	app := apps.ImageQuery()
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	drv := New(hardware.DefaultCatalog(), profiles, 2.0, liteOptions(3))
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 2.0, Seed: 3}, drv)
	// Sparse phase (IT 20 s) then dense phase (IT 1 s).
	var arr []float64
	for i := 0; i < 10; i++ {
		arr = append(arr, float64(i)*20)
	}
	for i := 0; i < 60; i++ {
		arr = append(arr, 220+float64(i))
	}
	st := sim.MustRun(&trace.Trace{Horizon: 320, Arrivals: arr})
	if st.Completed != len(arr) {
		t.Fatalf("completed %d/%d", st.Completed, len(arr))
	}
	// After the dense phase the plan must be sized for the dense regime.
	if drv.planITMean > 10 {
		t.Errorf("planITMean %.1f: plan not refreshed for the dense regime", drv.planITMean)
	}
}

// TestEventTimesCollapsesBursts: many arrivals inside one window are one
// event (the §IV-B2 granularity).
func TestEventTimesCollapsesBursts(t *testing.T) {
	app := apps.Pipeline(1)
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	drv := New(hardware.DefaultCatalog(), profiles, 2.0, liteOptions(4))
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 5.0, Seed: 4}, drv)
	arr := []float64{10.1, 10.2, 10.3, 10.4, 20.5, 20.6}
	st := sim.MustRun(&trace.Trace{Horizon: 60, Arrivals: arr})
	if st.Completed != 6 {
		t.Fatalf("completed %d/6", st.Completed)
	}
	events := drv.windowEvents(sim)
	if len(events) != 2 {
		t.Errorf("window events = %d, want 2 (bursts collapse)", len(events))
	}
}

// TestMinWarmForRegimes pins the warm-floor rule.
func TestMinWarmForRegimes(t *testing.T) {
	if minWarmFor(coldstart.KeepAlive, 5, 30) != 1 {
		t.Error("busy keep-alive regime should pin one instance")
	}
	if minWarmFor(coldstart.KeepAlive, 100, 30) != 0 {
		t.Error("sparse regime should not pin")
	}
	if minWarmFor(coldstart.Prewarm, 5, 30) != 0 {
		t.Error("prewarm policy should not pin")
	}
}

// TestBurstConfigRestoredAfterBurst: after a large burst engages the
// Eq. 7/8 solver, the steady plan's configuration returns.
func TestBurstConfigRestoredAfterBurst(t *testing.T) {
	app := apps.Pipeline(2)
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	drv := New(hardware.DefaultCatalog(), profiles, 4.0, liteOptions(5))
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 4.0, Seed: 5}, drv)
	var arr []float64
	r := mathx.NewRand(5)
	for i := 0; i < 20; i++ { // steady lead-in
		arr = append(arr, float64(i)*5+r.Float64())
	}
	for i := 0; i < 30; i++ { // heavy burst
		arr = append(arr, 120+float64(i)*0.05)
	}
	arr = append(arr, 200, 220, 240) // steady tail
	st := sim.MustRun(&trace.Trace{Horizon: 300, Arrivals: arr})
	if st.Completed != len(arr) {
		t.Fatalf("completed %d/%d", st.Completed, len(arr))
	}
	if drv.bursting {
		t.Error("burst mode still engaged at end of steady tail")
	}
	for _, id := range app.Graph.Nodes() {
		if got := sim.GetDirective(id).Config; got != drv.plan.Configs[id] {
			t.Errorf("%s: directive config %v differs from plan %v after burst", id, got, drv.plan.Configs[id])
		}
	}
}
