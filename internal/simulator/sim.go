package simulator

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"

	"smiless/internal/apps"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/placement"
	"smiless/internal/trace"
	"smiless/internal/units"
)

// Driver is the decision-making system under evaluation (SMIless or a
// baseline). It installs Directives and may schedule pre-warms. Drivers are
// written against the ControlPlane interface, so the same driver runs on the
// discrete-event simulator and on the wall-clock serving runtime
// (internal/serving) unchanged.
type Driver interface {
	// Name labels the system in experiment output.
	Name() string
	// Setup is called once before the run; the driver installs initial
	// directives here.
	Setup(cp ControlPlane)
	// OnWindow is called at every decision-window boundary with the
	// current time; the driver may update directives, schedule pre-warms
	// and rescale.
	OnWindow(cp ControlPlane, now float64)
}

// PlacementPolicy selects how launches are placed onto cluster nodes.
type PlacementPolicy int

const (
	// PlaceFirstFit scans nodes in index order and takes the first with
	// capacity — the default, byte-identical to earlier releases.
	PlaceFirstFit PlacementPolicy = iota
	// PlaceP2C routes by locality: a function's home node (a stable hash
	// of its name) keeps the launch while it has capacity, and overflow
	// forwards to the less loaded of two randomly sampled peers
	// (power-of-two-choices). Draws come from a dedicated placement RNG,
	// so enabling it never perturbs the ground-truth timing stream.
	PlaceP2C
	// PlacePack is affinity packing: among nodes with capacity, the launch
	// goes to the one already hosting the most same-class work (scored by
	// interference-weighted memory-bandwidth pressure), concentrating each
	// class on few nodes. Ties break to the lower index.
	PlacePack
	// PlaceSpread is interference spreading: the launch goes to the node
	// where the function's class sees the least co-location pressure,
	// trading locality for isolation. Ties break to the lower index.
	PlaceSpread
)

// Config parameterizes a simulation run.
type Config struct {
	App     *apps.Application
	Cluster hardware.ClusterSpec
	Pricing hardware.Pricing
	// Placement selects the node-placement policy (default PlaceFirstFit).
	Placement PlacementPolicy
	// GossipInterval is the health-detector tick period in seconds
	// (default 0.25). SuspectAfter and DownAfter are how long a node must
	// miss heartbeats before it is suspected (default 2×GossipInterval)
	// and declared down with its in-flight work failed over (default
	// 2×SuspectAfter). Only consulted when Faults carries NodeFaults.
	GossipInterval float64
	SuspectAfter   float64
	DownAfter      float64
	// SLA is the end-to-end latency bound in seconds.
	SLA float64
	// Window is the decision-window length; the paper uses one second.
	Window float64
	// StatsAfter excludes requests arriving before this time from the
	// latency/violation statistics: the measurement warm-up, during which
	// predictors train and the initial plan converges. Cost is always
	// accounted for the full run. Zero measures everything.
	StatsAfter float64
	// GPUContention scales the latency penalty for co-located MPS slices:
	// an instance holding share s on a node with u percent total GPU usage
	// runs (1 + GPUContention·(u−s)/100)× slower — the PCIe/memory
	// bandwidth sharing the paper mitigates with the 10% allocation floor
	// (§IV-A2). Zero disables contention.
	GPUContention float64
	// Interference is the optional co-location interference model
	// (internal/placement): when set, a container's sampled init and
	// inference durations are inflated by the model's slowdown over the
	// other live containers on its node. Nil — or a model whose slowdown
	// is exactly 1 everywhere — leaves every timing byte-identical to an
	// interference-blind run.
	Interference *placement.Model
	// PriceTrace is the optional spot-price scenario: container lifetimes
	// are billed at the in-effect multiplier (∫ multiplier dt × unit cost)
	// and the trace's preemption windows withdraw nodes, evicting their
	// containers with control-plane failover. Nil bills static on-demand
	// prices; FlatTrace(1) is bit-identical to nil.
	PriceTrace *hardware.PriceTrace
	// Seed drives all sampled timings.
	Seed int64
	// Faults is the optional failure-injection plan: crash probabilities,
	// straggler inflation and node outages. Nil (or a plan with all rates
	// zero and no outages) leaves every code path identical to a fault-free
	// run — the injector draws from its own RNG stream, so enabling it
	// never perturbs the ground-truth timing samples.
	Faults *faults.Plan
}

// Simulator runs one (application, driver, trace) evaluation: the shared
// Executor plus a virtual-time Run loop, capacity-limited placement onto
// Config.Cluster, and the legacy instant-detection Outage events.
type Simulator struct {
	*Executor
	// prng is the placement RNG: only PlaceP2C draws from it, so the
	// ground-truth timing stream is identical whichever placement policy
	// runs.
	prng *rand.Rand
}

// ConfigError reports an invalid Config field passed to New.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("simulator: invalid config: %s %s", e.Field, e.Reason)
}

// ErrEmptyTrace is returned by Run when the trace carries no arrivals.
var ErrEmptyTrace = errors.New("simulator: empty trace")

// New prepares a simulator for the given run configuration and driver. It
// returns a *ConfigError when the configuration is structurally invalid
// (nil driver, missing application, negative SLA or window); zero SLA and
// window still take their documented defaults.
func New(cfg Config, driver Driver) (*Simulator, error) {
	if driver == nil {
		return nil, &ConfigError{Field: "driver", Reason: "must not be nil"}
	}
	if cfg.App == nil || cfg.App.Graph == nil || cfg.App.Graph.Len() == 0 {
		return nil, &ConfigError{Field: "App", Reason: "must have a non-empty graph"}
	}
	if cfg.SLA < 0 {
		return nil, &ConfigError{Field: "SLA", Reason: "must not be negative"}
	}
	if cfg.Window < 0 {
		return nil, &ConfigError{Field: "Window", Reason: "must not be negative"}
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.SLA <= 0 {
		cfg.SLA = 2
	}
	if cfg.Cluster.Nodes == nil {
		cfg.Cluster = hardware.DefaultCluster()
	}
	if cfg.Pricing == (hardware.Pricing{}) {
		cfg.Pricing = hardware.DefaultPricing
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 0.25
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2 * cfg.GossipInterval
	}
	if cfg.DownAfter <= cfg.SuspectAfter {
		cfg.DownAfter = 2 * cfg.SuspectAfter
	}
	if cfg.Faults != nil {
		for _, o := range cfg.Faults.Outages {
			if o.Node < 0 || o.Node >= len(cfg.Cluster.Nodes) {
				return nil, &ConfigError{Field: "Faults.Outages", Reason: fmt.Sprintf("node %d out of range", o.Node)}
			}
		}
		for _, nf := range cfg.Faults.NodeFaults {
			if nf.Node < 0 || nf.Node >= len(cfg.Cluster.Nodes) {
				return nil, &ConfigError{Field: "Faults.NodeFaults", Reason: fmt.Sprintf("node %d out of range", nf.Node)}
			}
			if nf.Kind == faults.NodePartition && nf.End <= nf.Start {
				return nil, &ConfigError{Field: "Faults.NodeFaults", Reason: fmt.Sprintf("partition of node %d must have End > Start", nf.Node)}
			}
		}
	}
	if cfg.PriceTrace != nil {
		for _, w := range cfg.PriceTrace.Preemptions {
			if w.Node < 0 || w.Node >= len(cfg.Cluster.Nodes) {
				return nil, &ConfigError{Field: "PriceTrace.Preemptions", Reason: fmt.Sprintf("node %d out of range", w.Node)}
			}
			if w.End <= w.Start {
				return nil, &ConfigError{Field: "PriceTrace.Preemptions", Reason: fmt.Sprintf("window on node %d must have End > Start", w.Node)}
			}
		}
	}
	s := &Simulator{prng: mathx.NewRand(cfg.Seed ^ 0x9e3779b9)}
	s.Executor = NewExecutor(cfg, driver, Host{Place: s.placeLaunch})
	return s, nil
}

// MustNew is New that panics on configuration error, for tests and
// experiment harnesses whose configs are statically known to be valid.
func MustNew(cfg Config, driver Driver) *Simulator {
	s, err := New(cfg, driver)
	if err != nil {
		panic(err)
	}
	return s
}

// placeLaunch is the simulator's Place hook: it picks a node with capacity
// for one launch under the configured placement policy, counting overflow
// forwards under PlaceP2C.
func (s *Simulator) placeLaunch(id dag.NodeID, cfg hardware.Config) (int, bool) {
	switch s.cfg.Placement {
	case PlaceP2C:
		node, forwarded, ok := s.cluster.allocateP2C(cfg, HomeNode(string(id), s.cluster.len()), s.prng)
		if ok && forwarded {
			s.stats.Forwards++
		}
		return node, ok
	case PlacePack:
		return s.PlaceAffinity(id, cfg, true)
	case PlaceSpread:
		return s.PlaceAffinity(id, cfg, false)
	}
	return s.cluster.allocate(cfg)
}

// Run replays the trace through the simulator and returns the collected
// statistics. The run ends when all requests have resolved — completed or
// failed — (or the safety horizon of trace.Horizon + 600 s is reached). A
// nil or empty trace returns ErrEmptyTrace.
func (s *Simulator) Run(tr *trace.Trace) (*RunStats, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, ErrEmptyTrace
	}
	for _, at := range tr.Arrivals {
		s.schedule(&event{at: units.Seconds(at), kind: evArrival})
	}
	s.horizon = units.Seconds(tr.Horizon + 600)
	for w := s.cfg.Window; w <= tr.Horizon+s.cfg.Window; w += s.cfg.Window {
		s.schedule(&event{at: units.Seconds(w), kind: evWindow})
	}
	if s.cfg.Faults != nil {
		for _, o := range s.cfg.Faults.Outages {
			if o.End <= o.Start {
				continue
			}
			s.schedule(&event{at: units.Seconds(o.Start), kind: evNodeDown, cid: o.Node})
			s.schedule(&event{at: units.Seconds(o.End), kind: evNodeUp, cid: o.Node})
		}
	}
	// The detector only runs when a fault plan can starve heartbeats;
	// plans without node faults stay byte-identical to earlier builds.
	s.scheduleFaults(s.cfg.Faults != nil && len(s.cfg.Faults.NodeFaults) > 0)
	s.driver.Setup(s.Executor)

	outstanding := tr.Len()
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		if e.at > s.horizon {
			break
		}
		if e.at < s.now-1e-9 {
			panic(fmt.Sprintf("simulator: time travel %.6f -> %.6f", s.now.Seconds(), e.at.Seconds()))
		}
		s.now = e.at
		s.handle(e)
		if s.stats.Completed+s.stats.FailedInvocations >= outstanding && s.allIdle() && s.now.Seconds() > tr.Horizon {
			break
		}
	}
	s.finish()
	return s.stats, nil
}

// MustRun is Run that panics on error, for callers that construct the
// trace themselves and know it is non-empty.
func (s *Simulator) MustRun(tr *trace.Trace) *RunStats {
	st, err := s.Run(tr)
	if err != nil {
		panic(err)
	}
	return st
}

func (s *Simulator) allIdle() bool {
	for _, fs := range s.fns {
		if len(fs.queue) > 0 {
			return false
		}
		for _, c := range fs.containers {
			if c.state == cBusy || c.state == cInitializing {
				return false
			}
		}
	}
	return true
}

// finish terminates all containers and finalizes accounting.
func (s *Simulator) finish() {
	s.Shutdown()
	// Requests that never resolved by the safety horizon (only possible
	// under fault injection: work stranded behind a dead node or an
	// exhausted queue) count as failed so availability reflects them.
	if unresolved := s.nextInv - s.stats.Completed - s.stats.FailedInvocations; unresolved > 0 {
		s.stats.FailedInvocations += unresolved
	}
}

// onNodeDown begins a legacy Outage: detection is instantaneous, no new
// allocations land on the node and every container on it is evicted, its
// in-flight work retried elsewhere (charging retry attempts, as before).
func (e *Executor) onNodeDown(n int) {
	if n < 0 || n >= e.cluster.len() || e.cluster.isDown(n) {
		return
	}
	e.cluster.setDown(n, true)
	e.stats.NodeDownEvents++
	e.evictNode(n, e.retryMember)
	e.pumpAll()
}

// onNodeUp ends a legacy Outage: the node accepts allocations again and any
// capacity-blocked launches are placed.
func (e *Executor) onNodeUp(n int) {
	if n < 0 || n >= e.cluster.len() || !e.cluster.isDown(n) {
		return
	}
	e.cluster.setDown(n, false)
	e.drainPendingLaunches()
	e.pumpAll()
}
