package simulator

import (
	"testing"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/trace"
)

// smallCluster returns an n-node cluster with the given cores per node (no
// GPUs) so placement pressure is easy to engineer in tests.
func smallCluster(n, cores int) hardware.ClusterSpec {
	nodes := make([]hardware.NodeSpec, n)
	for i := range nodes {
		nodes[i] = hardware.NodeSpec{Cores: cores}
	}
	return hardware.ClusterSpec{Nodes: nodes}
}

func TestNodeCrashFailoverLossless(t *testing.T) {
	// A node crashes with a request in flight. The gossip detector declares
	// it down (~1 s later at the default cadence), the in-flight member
	// fails over to a live peer without charging a retry attempt, and the
	// request completes. Nothing is lost and nothing completes twice.
	app := apps.Pipeline(2)
	sim := MustNew(Config{
		App: app, SLA: 600, Seed: 5,
		Faults: &faults.Plan{NodeFaults: []faults.NodeFault{
			{Node: 0, Kind: faults.NodeCrash, Start: 15, End: 40},
		}},
	}, retryDriver(faults.RetryPolicy{MaxAttempts: 5, BaseBackoff: 0.5}, 0))
	// Stretch the first execution so the crash lands mid-exec rather than
	// mid-init (warm exec windows are sub-second).
	sim.inj = &scriptInjector{straggler: []float64{60}}
	st := sim.MustRun(&trace.Trace{Horizon: 300, Arrivals: []float64{10}})
	if st.Completed != 1 || st.FailedInvocations != 0 {
		t.Fatalf("completed=%d failed=%d, want 1/0 (crash must not lose the request)",
			st.Completed, st.FailedInvocations)
	}
	if st.NodeDownEvents != 1 {
		t.Errorf("nodeDownEvents = %d, want 1", st.NodeDownEvents)
	}
	if st.Failovers == 0 {
		t.Error("expected at least one failover of the in-flight member")
	}
	if st.EvictedContainers == 0 {
		t.Error("expected the crashed node's containers evicted at detection")
	}
	// Failover charges no retry attempt: the failure is the node's fault.
	if st.Retries != 0 {
		t.Errorf("retries = %d, want 0 (failover must not consume the retry budget)", st.Retries)
	}
	if st.NodeDownSeconds <= 0 {
		t.Errorf("nodeDownSeconds = %v, want > 0", st.NodeDownSeconds)
	}
}

func TestNodeCrashFastFlapStillFailsOver(t *testing.T) {
	// The node crashes and restarts before the detector can declare it
	// down. The restart itself must evict the containers that died with the
	// process and fail their work over — a fast flap cannot lose requests.
	app := apps.Pipeline(2)
	sim := MustNew(Config{
		App: app, SLA: 600, Seed: 5,
		Faults: &faults.Plan{NodeFaults: []faults.NodeFault{
			{Node: 0, Kind: faults.NodeCrash, Start: 15, End: 15.3},
		}},
	}, retryDriver(faults.RetryPolicy{MaxAttempts: 5, BaseBackoff: 0.5}, 0))
	sim.inj = &scriptInjector{straggler: []float64{60}}
	st := sim.MustRun(&trace.Trace{Horizon: 300, Arrivals: []float64{10}})
	if st.Completed != 1 || st.FailedInvocations != 0 {
		t.Fatalf("completed=%d failed=%d, want 1/0", st.Completed, st.FailedInvocations)
	}
	if st.NodeDownEvents != 0 {
		t.Errorf("nodeDownEvents = %d, want 0 (flap was faster than detection)", st.NodeDownEvents)
	}
	if st.Failovers == 0 {
		t.Error("expected the restart to fail in-flight work over")
	}
}

func TestNodePartitionTwinsAndDedups(t *testing.T) {
	// A partition strands the in-flight execution behind an unreachable
	// node. At detection a twin races on a live peer; at heal the held
	// original completion replays. Exactly one completion must win.
	app := apps.Pipeline(2)
	sim := MustNew(Config{
		App: app, SLA: 600, Seed: 5,
		Faults: &faults.Plan{NodeFaults: []faults.NodeFault{
			{Node: 0, Kind: faults.NodePartition, Start: 11, End: 60},
		}},
	}, retryDriver(faults.RetryPolicy{MaxAttempts: 5, BaseBackoff: 0.5}, 0))
	st := sim.MustRun(&trace.Trace{Horizon: 300, Arrivals: []float64{10}})
	if st.Completed != 1 || st.FailedInvocations != 0 {
		t.Fatalf("completed=%d failed=%d, want exactly 1/0 (idempotent dedup)",
			st.Completed, st.FailedInvocations)
	}
	if st.Failovers == 0 {
		t.Error("expected the stranded member twinned onto a live peer")
	}
	// Partitioned containers keep running; nothing is evicted at detection.
	if st.EvictedContainers != 0 {
		t.Errorf("evicted = %d, want 0 (partition must not kill containers)", st.EvictedContainers)
	}
	if st.NodeDownEvents != 1 || st.NodeDownSeconds <= 0 {
		t.Errorf("nodeDownEvents=%d nodeDownSeconds=%v, want 1 and > 0",
			st.NodeDownEvents, st.NodeDownSeconds)
	}
}

func TestP2CPlacementForwardsOverflow(t *testing.T) {
	// Two 8-core nodes, 4-core containers: the home node fits two
	// instances, so materializing four forwards at least one launch.
	app := apps.Pipeline(1)
	run := func(p PlacementPolicy) *RunStats {
		sim := MustNew(Config{
			App: app, SLA: 600, Seed: 5,
			Cluster:   smallCluster(2, 8),
			Placement: p,
		}, retryDriver(faults.RetryPolicy{}, 0))
		return sim.MustRun(&trace.Trace{Horizon: 200,
			Arrivals: []float64{1, 1.001, 1.002, 1.003}})
	}
	p2c := run(PlaceP2C)
	if p2c.Completed != 4 {
		t.Fatalf("completed = %d, want 4", p2c.Completed)
	}
	if p2c.Forwards == 0 {
		t.Error("expected overflow launches forwarded off the home node")
	}
	ff := run(PlaceFirstFit)
	if ff.Forwards != 0 {
		t.Errorf("first-fit forwards = %d, want 0", ff.Forwards)
	}
	if ff.Completed != 4 {
		t.Fatalf("first-fit completed = %d, want 4", ff.Completed)
	}
}

func TestNodeFaultRunDeterministic(t *testing.T) {
	// A churn plan (crash + partition) under p2c placement must produce
	// bit-identical statistics across reruns: gossip, failover, and
	// placement all draw from seeded deterministic state.
	run := func() *RunStats {
		plan := &faults.Plan{
			NodeFaults: []faults.NodeFault{
				{Node: 0, Kind: faults.NodeCrash, Start: 20, End: 45},
				{Node: 1, Kind: faults.NodePartition, Start: 60, End: 80},
			},
			Seed: 9,
		}
		sim := MustNew(Config{
			App: apps.ImageQuery(), SLA: 4, Seed: 11,
			Cluster:   smallCluster(4, 32),
			Placement: PlaceP2C,
			Faults:    plan,
		}, retryDriver(faults.RetryPolicy{MaxAttempts: 3, Timeout: 8, BaseBackoff: 0.1}, 0))
		arr := []float64{1, 3, 9, 14, 19, 21, 30, 31, 55, 61, 62, 70, 81, 100}
		return sim.MustRun(&trace.Trace{Horizon: 150, Arrivals: arr})
	}
	a, b := run(), run()
	if a.TotalCost != b.TotalCost || a.Completed != b.Completed ||
		a.FailedInvocations != b.FailedInvocations ||
		a.Failovers != b.Failovers || a.Forwards != b.Forwards ||
		a.NodeDownEvents != b.NodeDownEvents ||
		a.NodeDownSeconds != b.NodeDownSeconds {
		t.Fatalf("churn run not deterministic:\n%+v\n%+v", a, b)
	}
	if len(a.E2E) != len(b.E2E) {
		t.Fatalf("E2E lengths diverged: %d vs %d", len(a.E2E), len(b.E2E))
	}
	for i := range a.E2E {
		if a.E2E[i] != b.E2E[i] {
			t.Fatalf("E2E[%d] diverged: %v vs %v", i, a.E2E[i], b.E2E[i])
		}
	}
	// The plan actually exercised the machinery.
	if a.NodeDownEvents == 0 || a.Failovers == 0 {
		t.Errorf("plan exercised nothing: downEvents=%d failovers=%d",
			a.NodeDownEvents, a.Failovers)
	}
}

func TestPartitionFailoverLaunchesPastInstanceCap(t *testing.T) {
	// A partition strands the only instance the cap allows. Once the
	// detector holds the node down, the stranded instance no longer
	// occupies the cap: the failed-over twin launches a replacement on the
	// live peer and completes long before the partition heals at t=200.
	drv := &staticDriver{directive: func(dag.NodeID) Directive {
		return Directive{
			Config: cpu(4), Policy: coldstart.KeepAlive, KeepAlive: 60,
			Batch: 1, Instances: 1,
			Retry: faults.RetryPolicy{MaxAttempts: 5, BaseBackoff: 0.5},
		}
	}}
	sim := MustNew(Config{
		App: apps.Pipeline(2), SLA: 600, Seed: 5, Cluster: smallCluster(2, 16),
		Faults: &faults.Plan{NodeFaults: []faults.NodeFault{
			{Node: 0, Kind: faults.NodePartition, Start: 11, End: 200},
		}},
	}, drv)
	sim.inj = &scriptInjector{straggler: []float64{60}}
	st := sim.MustRun(&trace.Trace{Horizon: 300, Arrivals: []float64{10}})
	if st.Completed != 1 || st.FailedInvocations != 0 {
		t.Fatalf("completed=%d failed=%d, want 1/0", st.Completed, st.FailedInvocations)
	}
	if e2e := st.E2E[0]; e2e >= 200-10 {
		t.Errorf("E2E = %.2f s: the twin waited for the heal instead of launching on the live peer", e2e)
	}
	if st.Failovers == 0 {
		t.Error("expected the stranded member twinned onto the live peer")
	}
}

func TestPreemptionEndKeepsDetectorVerdict(t *testing.T) {
	// Node 0 crashes at 15 and stays dead until 60; a preemption window
	// [20, 30) lands while the detector already holds it down. The
	// window's end must not lift the detector's verdict: the node stays
	// down — and unplaceable — until its heartbeats resume after the
	// restart, as one continuous down period.
	arr := []float64{10}
	for at := 31.0; at <= 58; at += 1.3 {
		arr = append(arr, at)
	}
	sim := MustNew(Config{
		App: apps.Pipeline(2), SLA: 600, Seed: 5, Cluster: smallCluster(3, 16),
		Faults: &faults.Plan{NodeFaults: []faults.NodeFault{
			{Node: 0, Kind: faults.NodeCrash, Start: 15, End: 60},
		}},
		PriceTrace: &hardware.PriceTrace{
			Preemptions: []hardware.PreemptionWindow{{Node: 0, Start: 20, End: 30}},
		},
	}, retryDriver(faults.RetryPolicy{MaxAttempts: 5, BaseBackoff: 0.5}, 0))
	st := sim.MustRun(&trace.Trace{Horizon: 120, Arrivals: arr})
	if st.Completed != len(arr) || st.FailedInvocations != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.FailedInvocations, len(arr))
	}
	if st.NodeDownEvents != 1 {
		t.Errorf("NodeDownEvents = %d, want 1: the preemption's end re-admitted a crashed node", st.NodeDownEvents)
	}
	if want := 60 - 15.75; st.NodeDownSeconds != want { //lint:allow floateq gossip ticks land on exact quarter seconds
		t.Errorf("NodeDownSeconds = %v, want %v (detected at 15.75, recovered at the restart)", st.NodeDownSeconds, want)
	}
}
