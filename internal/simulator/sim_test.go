package simulator

import (
	"math"
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/trace"
)

func cpu(cores int) hardware.Config { return hardware.Config{Kind: hardware.CPU, Cores: cores} }
func gpu(share int) hardware.Config { return hardware.Config{Kind: hardware.GPU, GPUShare: share} }

// staticDriver installs one directive for every function and never changes.
type staticDriver struct {
	directive func(id dag.NodeID) Directive
}

func (d *staticDriver) Name() string { return "static" }
func (d *staticDriver) Setup(s ControlPlane) {
	for _, id := range s.App().Graph.Nodes() {
		s.SetDirective(id, d.directive(id))
	}
}
func (d *staticDriver) OnWindow(ControlPlane, float64) {}

func keepAliveDriver(cfg hardware.Config, ka float64) *staticDriver {
	return &staticDriver{directive: func(dag.NodeID) Directive {
		return Directive{Config: cfg, Policy: coldstart.KeepAlive, KeepAlive: ka, Batch: 1, Instances: 4}
	}}
}

func runPipeline(t *testing.T, d Driver, tr *trace.Trace, sla float64) *RunStats {
	t.Helper()
	app := apps.Pipeline(3)
	sim := MustNew(Config{App: app, SLA: sla, Seed: 1}, d)
	return sim.MustRun(tr)
}

func TestAllRequestsComplete(t *testing.T) {
	tr := &trace.Trace{Horizon: 100, Arrivals: []float64{1, 20, 40, 60}}
	st := runPipeline(t, keepAliveDriver(cpu(4), 30), tr, 30)
	if st.Completed != 4 {
		t.Fatalf("completed = %d, want 4", st.Completed)
	}
	if len(st.E2E) != 4 {
		t.Fatalf("E2E samples = %d, want 4", len(st.E2E))
	}
}

func TestColdThenWarm(t *testing.T) {
	// First request pays the cold start; the second (within keep-alive)
	// runs warm and is much faster.
	tr := &trace.Trace{Horizon: 60, Arrivals: []float64{1, 10}}
	st := runPipeline(t, keepAliveDriver(cpu(4), 30), tr, 60)
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
	if st.E2E[1] >= st.E2E[0]/1.5 {
		t.Errorf("warm E2E %v should be well below cold E2E %v", st.E2E[1], st.E2E[0])
	}
	// Exactly one init per function (3 total).
	if st.Inits != 3 {
		t.Errorf("inits = %d, want 3", st.Inits)
	}
}

func TestKeepAliveExpires(t *testing.T) {
	// Two requests far apart with a short keep-alive: every function
	// re-initializes, so 6 inits total.
	tr := &trace.Trace{Horizon: 200, Arrivals: []float64{1, 150}}
	st := runPipeline(t, keepAliveDriver(cpu(4), 5), tr, 60)
	if st.Inits != 6 {
		t.Errorf("inits = %d, want 6 (keep-alive expired)", st.Inits)
	}
}

func TestCostIncreasesWithKeepAlive(t *testing.T) {
	tr := &trace.Trace{Horizon: 120, Arrivals: []float64{1}}
	short := runPipeline(t, keepAliveDriver(cpu(4), 2), tr, 60)
	long := runPipeline(t, keepAliveDriver(cpu(4), 100), tr, 60)
	if long.TotalCost <= short.TotalCost {
		t.Errorf("long keep-alive cost %v should exceed short %v", long.TotalCost, short.TotalCost)
	}
}

func TestGPUCostsMoreForIdle(t *testing.T) {
	tr := &trace.Trace{Horizon: 120, Arrivals: []float64{1}}
	cpuRun := runPipeline(t, keepAliveDriver(cpu(1), 60), tr, 120)
	gpuRun := runPipeline(t, keepAliveDriver(gpu(100), 60), tr, 120)
	if gpuRun.TotalCost <= cpuRun.TotalCost {
		t.Errorf("idle GPU cost %v should exceed idle CPU cost %v", gpuRun.TotalCost, cpuRun.TotalCost)
	}
	if gpuRun.GPUSeconds == 0 || gpuRun.CPUSeconds != 0 {
		t.Error("backend second accounting wrong")
	}
}

func TestPrewarmPolicyTerminatesAfterUse(t *testing.T) {
	d := &staticDriver{directive: func(dag.NodeID) Directive {
		return Directive{Config: cpu(4), Policy: coldstart.Prewarm, Batch: 1, Instances: 2}
	}}
	tr := &trace.Trace{Horizon: 100, Arrivals: []float64{1, 50}}
	st := runPipeline(t, d, tr, 60)
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
	// Containers die after each batch: 2 requests × 3 functions = 6 inits.
	if st.Inits != 6 {
		t.Errorf("inits = %d, want 6 under terminate-after-use", st.Inits)
	}
}

// prewarmDriver schedules proactive pre-warms for the known arrival times.
type prewarmDriver struct {
	arrivals []float64
	offsets  map[dag.NodeID]float64
	leads    map[dag.NodeID]float64
}

func (d *prewarmDriver) Name() string { return "oracle-prewarm" }
func (d *prewarmDriver) Setup(s ControlPlane) {
	profiles := s.App().TrueProfiles(3)
	d.offsets = map[dag.NodeID]float64{}
	d.leads = map[dag.NodeID]float64{}
	off := 0.0
	for _, id := range s.App().Graph.TopoSort() {
		cfg := cpu(4)
		d.offsets[id] = off
		d.leads[id] = profiles[id].InitTime(cfg)
		off += profiles[id].InferenceTime(cfg, 1)
		s.SetDirective(id, Directive{
			Config: cfg, Policy: coldstart.Prewarm,
			PrewarmLead: d.leads[id], PathOffset: d.offsets[id],
			KeepAlive: 30, Batch: 1, Instances: 2,
		})
	}
	for _, at := range d.arrivals {
		for _, id := range s.App().Graph.Nodes() {
			s.SchedulePrewarm(id, at+d.offsets[id])
		}
	}
}
func (d *prewarmDriver) OnWindow(ControlPlane, float64) {}

func TestOraclePrewarmHidesInit(t *testing.T) {
	// With perfect pre-warming, E2E is close to the sum of inference
	// times: initialization is off the critical path (Eq. 5).
	app := apps.Pipeline(3)
	arr := []float64{30, 90}
	tr := &trace.Trace{Horizon: 150, Arrivals: arr}
	sim := MustNew(Config{App: app, SLA: 30, Seed: 2}, &prewarmDriver{arrivals: arr})
	st := sim.MustRun(tr)
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
	profiles := app.TrueProfiles(3)
	wantSum := 0.0
	for _, id := range app.Graph.Nodes() {
		wantSum += profiles[id].InferenceTime(cpu(4), 1)
	}
	for i, e2e := range st.E2E {
		// Allow noise slack but require the ~2s init times to be hidden.
		if e2e > wantSum*1.5 {
			t.Errorf("request %d E2E %v: initialization not hidden (inference sum %v)", i, e2e, wantSum)
		}
	}
}

func TestBatchingReducesExecutions(t *testing.T) {
	// 8 simultaneous arrivals with batch 8 should execute far fewer
	// batches than with batch 1.
	mk := func(batch int) *RunStats {
		d := &staticDriver{directive: func(dag.NodeID) Directive {
			return Directive{Config: gpu(100), Policy: coldstart.KeepAlive, KeepAlive: 30, Batch: batch, Instances: 1}
		}}
		arr := make([]float64, 8)
		for i := range arr {
			arr[i] = 1.0 + float64(i)*0.001
		}
		tr := &trace.Trace{Horizon: 120, Arrivals: arr}
		return runPipeline(t, d, tr, 120)
	}
	b1 := mk(1)
	b8 := mk(8)
	if b1.Completed != 8 || b8.Completed != 8 {
		t.Fatalf("completed %d/%d, want 8/8", b1.Completed, b8.Completed)
	}
	if b8.Executions >= b1.Executions {
		t.Errorf("batched executions %d should be far below unbatched %d", b8.Executions, b1.Executions)
	}
	if b8.MeanBatch() <= 2 {
		t.Errorf("mean batch %v, want > 2", b8.MeanBatch())
	}
}

func TestScaleOutCapRespected(t *testing.T) {
	d := &staticDriver{directive: func(dag.NodeID) Directive {
		return Directive{Config: cpu(1), Policy: coldstart.KeepAlive, KeepAlive: 10, Batch: 1, Instances: 2}
	}}
	arr := make([]float64, 10)
	for i := range arr {
		arr[i] = 1
	}
	app := apps.Pipeline(1)
	sim := MustNew(Config{App: app, SLA: 300, Seed: 3}, d)
	st := sim.MustRun(&trace.Trace{Horizon: 300, Arrivals: arr})
	if st.Completed != 10 {
		t.Fatalf("completed = %d, want 10", st.Completed)
	}
	// At most 2 instances => at most 2 inits for the single function.
	if st.Inits > 2 {
		t.Errorf("inits = %d, want <= 2 (instance cap)", st.Inits)
	}
	// Pod samples never exceed the cap.
	for _, p := range st.PodSamples {
		if p.CPU > 2 {
			t.Errorf("pod sample %d exceeds instance cap", p.CPU)
		}
	}
}

func TestDAGOrderingRespected(t *testing.T) {
	// In a diamond DAG the join function must run after both branches:
	// E2E >= longest path of inference times even fully warm.
	app := apps.ImageQuery()
	d := keepAliveDriver(cpu(4), 120)
	sim := MustNew(Config{App: app, SLA: 120, Seed: 4}, d)
	st := sim.MustRun(&trace.Trace{Horizon: 200, Arrivals: []float64{1, 60}})
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
	profiles := app.TrueProfiles(0)
	warmPath := 0.0
	for _, p := range app.Graph.Paths() {
		sum := 0.0
		for _, id := range p {
			sum += profiles[id].InferenceTime(cpu(4), 1)
		}
		if sum > warmPath {
			warmPath = sum
		}
	}
	// The second (warm) request must take at least ~the critical path.
	if st.E2E[1] < warmPath*0.5 {
		t.Errorf("warm E2E %v is below half the critical path %v: DAG ordering broken", st.E2E[1], warmPath)
	}
}

func TestCapacityLimitBlocksLaunches(t *testing.T) {
	// A one-node cluster with 4 cores cannot host 4 parallel 2-core
	// containers: capacity blocking must engage.
	d := &staticDriver{directive: func(dag.NodeID) Directive {
		return Directive{Config: cpu(2), Policy: coldstart.KeepAlive, KeepAlive: 5, Batch: 1, Instances: 8}
	}}
	app := apps.Pipeline(1)
	cluster := hardware.ClusterSpec{Nodes: []hardware.NodeSpec{{Cores: 4, GPUs: 0}}}
	arr := make([]float64, 8)
	for i := range arr {
		arr[i] = 1
	}
	sim := MustNew(Config{App: app, Cluster: cluster, SLA: 600, Seed: 5}, d)
	st := sim.MustRun(&trace.Trace{Horizon: 600, Arrivals: arr})
	if st.Completed != 8 {
		t.Fatalf("completed = %d, want 8 (queued launches must drain)", st.Completed)
	}
	if st.CapacityBlocked == 0 {
		t.Error("expected capacity-blocked launches on a 4-core cluster")
	}
}

func TestViolationAccounting(t *testing.T) {
	// Impossible SLA: every request violates.
	tr := &trace.Trace{Horizon: 60, Arrivals: []float64{1, 10}}
	st := runPipeline(t, keepAliveDriver(cpu(1), 30), tr, 0.001)
	if st.Violations != st.Completed {
		t.Errorf("violations = %d, want %d", st.Violations, st.Completed)
	}
	if st.ViolationRate() != 1 {
		t.Errorf("violation rate = %v, want 1", st.ViolationRate())
	}
}

func TestDeterminism(t *testing.T) {
	r1 := runPipeline(t, keepAliveDriver(cpu(4), 20), trace.Poisson(mathx.NewRand(7), 0.2, 120), 10)
	r2 := runPipeline(t, keepAliveDriver(cpu(4), 20), trace.Poisson(mathx.NewRand(7), 0.2, 120), 10)
	if r1.TotalCost != r2.TotalCost || r1.Completed != r2.Completed || r1.Inits != r2.Inits {
		t.Errorf("same seed must give identical runs: cost %v vs %v, completed %d vs %d, inits %d vs %d",
			r1.TotalCost, r2.TotalCost, r1.Completed, r2.Completed, r1.Inits, r2.Inits)
	}
	if len(r1.E2E) != len(r2.E2E) {
		t.Fatal("E2E length mismatch")
	}
	for i := range r1.E2E {
		if r1.E2E[i] != r2.E2E[i] {
			t.Fatalf("E2E[%d] differs: %v vs %v", i, r1.E2E[i], r2.E2E[i])
		}
	}
}

func TestStatsSummaryRenders(t *testing.T) {
	tr := &trace.Trace{Horizon: 30, Arrivals: []float64{1}}
	st := runPipeline(t, keepAliveDriver(cpu(4), 5), tr, 10)
	s := st.Summary()
	if len(s) == 0 || math.IsNaN(st.TotalCost) {
		t.Error("summary empty or NaN cost")
	}
	if got := st.TopCostFunctions(); len(got) == 0 {
		t.Error("no cost attribution")
	}
}

// appendingDriver appends to the history views on every window, as a
// careless driver might, and records whether each view's capacity was
// capped at its length.
type appendingDriver struct {
	staticDriver
	uncapped int
}

func (d *appendingDriver) OnWindow(cp ControlPlane, _ float64) {
	arr, counts := cp.ArrivalTimes(), cp.CountsHistory()
	if cap(arr) != len(arr) || cap(counts) != len(counts) {
		d.uncapped++
	}
	_ = append(arr, -1)
	_ = append(counts, -1)
}

// TestHistoryViewsAreCapped: ArrivalTimes and CountsHistory are views with
// cap == len, so an append by a driver reallocates instead of writing into
// the simulator's own history.
func TestHistoryViewsAreCapped(t *testing.T) {
	d := &appendingDriver{staticDriver: *keepAliveDriver(cpu(2), 30)}
	tr := trace.Poisson(mathx.NewRand(9), 2, 60)
	sim := MustNew(Config{App: apps.Pipeline(2), SLA: 5, Seed: 1}, d)
	sim.MustRun(tr)
	if d.uncapped != 0 {
		t.Errorf("%d windows saw a view with spare capacity", d.uncapped)
	}
	if arr := sim.ArrivalTimes(); !slices.Equal(arr, tr.Arrivals) {
		t.Errorf("arrival history %v, want the trace's %v", arr, tr.Arrivals)
	}
	if counts := sim.CountsHistory(); slices.Contains(counts, -1) {
		t.Errorf("count history %v holds a driver-appended value", counts)
	}
}
