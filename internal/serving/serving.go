// Package serving is the online serving runtime: the wall-clock counterpart
// of the deterministic discrete-event simulator. It runs the simulator's
// own container state machine — simulator.Executor: cold starts, keep-alive
// timers, pre-warms, batching, retries, hedging, node failover — against
// real time, driven by real concurrent requests instead of a replayed
// trace.
//
// Drivers program against the executor (a simulator.ControlPlane), so
// SMIless and every baseline Driver runs unchanged on a live gateway: the
// controller that plans against the simulator plans against production
// identically. Time is abstracted behind clock.Scheduler (internal/clock):
// a Wall clock in production, a ScaledWall for accelerated replays, and a
// Fake in tests, so the concurrent integration tests cover minutes of model
// latency in milliseconds without sleeping.
//
// # Architecture
//
// The Runtime is the executor plus what a live host adds around it: a
// scheduler goroutine, the runtime mutex, admission control, Result
// delivery, elastic node placement, the chaos admin surface and the HTTP
// gateway. Every future transition (init completion, execution completion,
// idle timeout, batch-linger expiry, decision window, retry, hedge,
// injected failure) is an event on the executor's deadline-ordered heap;
// the scheduler goroutine sleeps on clock.Scheduler.After until the
// earliest deadline, then steps everything due under the mutex. Invoke
// admits arrivals inline and wakes the loop. The design gives three
// properties for free:
//
//   - the per-request state machine is the simulator's, so simulated and
//     live behaviour cannot drift apart (TestSimulatorAndServingAgree
//     replays one trace through both and requires identical outcomes);
//   - tracing.Recorder and faults.Injector, which are single-threaded by
//     contract, are only ever touched under the mutex;
//   - with a Fake clock the loop processes each event exactly at its
//     deadline, so integration tests can assert latencies to float
//     precision.
//
// Where the substrates differ, the difference is data the runtime hands
// the executor, never a branch on which substrate runs. Capacity is host
// data: the live substrate is elastic, so each node carries unbounded
// capacity and launches never block (CapacityBlocked stays zero), and GPU
// MPS contention is off. Fault injection is supported through the same
// faults.Plan rates; Outage entries (the simulator's instant-detection
// node outages) are ignored, but NodeFault entries (crash, partition) are
// realized against the node layer below.
//
// # Multi-node control plane
//
// With Config.Nodes > 1 the runtime spreads the executor's containers over
// N node agents: new containers land on their function's locality home
// node and overflow to the less loaded of two sampled healthy peers (power
// of two choices). The executor's deterministic health-gossip failure
// detector walks nodes through up → suspect → down as heartbeats go
// missing and recovers them when heartbeats resume. When a node is
// declared down, its in-flight requests fail over to live peers under
// first-completion-wins idempotency — no request is lost or duplicated,
// even when a healed partition replays the original completions. Node
// crashes, restarts and partitions can be scheduled via
// faults.Plan.NodeFaults, injected live through
// KillNode/RestartNode/SetPartitioned, and observed via NodeInfos.
//
// # Batching (§V-D)
//
// Beyond passive aggregation (requests joining a busy or initializing
// instance's next batch), the runtime hands the executor an active batch
// window: when a function's directive asks for Batch > 1 and a warm
// instance is idle, dispatch is held for up to Config.BatchLinger seconds
// waiting for the batch to fill. The window closes early the moment the
// batch is full; a partial batch dispatches when it expires.
package serving

import (
	"errors"
	"fmt"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// Config parameterizes a serving runtime.
type Config struct {
	// App is the application under management.
	App *apps.Application
	// SLA is the end-to-end latency bound in seconds (default 2).
	SLA float64
	// Window is the decision-window length in seconds (default 1): the
	// cadence at which the driver's OnWindow runs.
	Window float64
	// Seed drives all sampled executor timings.
	Seed int64
	// BatchLinger is the batch aggregation window in seconds: how long a
	// function with Batch > 1 holds dispatch onto an idle instance waiting
	// for the batch to fill. Zero disables active aggregation (batches
	// still form passively on busy or initializing instances, as in the
	// simulator).
	BatchLinger float64
	// MaxInflight caps concurrently admitted requests; further Invoke
	// calls fail with ErrOverloaded until one resolves (default 256).
	MaxInflight int
	// QueueCap bounds each entry function's ready queue; arrivals that
	// would overflow it are rejected with ErrOverloaded (default 1024).
	QueueCap int
	// Pricing holds unit costs for the cost ledger (default
	// hardware.DefaultPricing).
	Pricing hardware.Pricing
	// Faults optionally injects failures — container crashes, stragglers,
	// timeouts — through the same plan the simulator uses. Outage entries
	// (node placement) are simulator-only and ignored here.
	Faults *faults.Plan
	// Recorder, when non-nil, records per-invocation span trees and
	// critical-path breakdowns from the live run, exportable as a Chrome
	// trace. All recorder calls are serialized under the runtime mutex.
	Recorder *tracing.Recorder
	// Clock is the time source and timer substrate (default a fresh
	// clock.Wall). Inject a clock.Fake in tests or a clock.ScaledWall for
	// accelerated replays.
	Clock clock.Scheduler
	// Nodes is the number of node agents the executor pool is spread over
	// (default 1: the classic single-pool runtime, byte-for-byte
	// unchanged). With Nodes > 1, placement routes by locality with
	// power-of-two-choices overflow and the health-gossip failure detector
	// runs.
	Nodes int
	// GossipInterval is the failure-detector tick period in seconds
	// (default 0.25). SuspectAfter and DownAfter are how long a node must
	// miss heartbeats before it is suspected (default 2×GossipInterval)
	// and declared down with failover (default 2×SuspectAfter).
	GossipInterval float64
	SuspectAfter   float64
	DownAfter      float64
	// LocalitySlack is how many more live containers the home node may
	// carry than the least-loaded healthy peer before a launch overflows
	// (default 2).
	LocalitySlack int
	// DefaultDeadline, when positive, bounds every request's end-to-end
	// latency in model seconds: requests still unresolved at the deadline
	// fail with Result.DeadlineExceeded. Per-request deadlines via
	// InvokeWithDeadline override it.
	DefaultDeadline float64
	// Placement selects the node-placement policy, sharing the simulator's
	// enum: first-fit home placement (default), P2C locality overflow,
	// affinity packing, or interference spreading. Only consulted with
	// Nodes > 1.
	Placement simulator.PlacementPolicy
	// Interference is the optional co-location interference model
	// (internal/placement): sampled init and inference durations are
	// inflated by the model's slowdown over a container's node
	// co-residents. Nil — or a model whose slowdown is 1 everywhere —
	// leaves every timing byte-identical to an interference-blind run.
	Interference *placement.Model
	// PriceTrace is the optional spot-price scenario: container lifetimes
	// are billed at the in-effect multiplier and the trace's preemption
	// windows withdraw nodes (containers evicted, work failed over). Nil
	// bills static prices; FlatTrace(1) is bit-identical to nil.
	PriceTrace *hardware.PriceTrace
}

// withDefaults validates cfg and fills defaults, mirroring simulator.New.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.App == nil || cfg.App.Graph == nil || cfg.App.Graph.Len() == 0 {
		return cfg, &ConfigError{Field: "App", Reason: "must have a non-empty graph"}
	}
	if cfg.SLA < 0 {
		return cfg, &ConfigError{Field: "SLA", Reason: "must not be negative"}
	}
	if cfg.Window < 0 {
		return cfg, &ConfigError{Field: "Window", Reason: "must not be negative"}
	}
	if cfg.BatchLinger < 0 {
		return cfg, &ConfigError{Field: "BatchLinger", Reason: "must not be negative"}
	}
	if cfg.SLA <= 0 {
		cfg.SLA = 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Pricing == (hardware.Pricing{}) {
		cfg.Pricing = hardware.DefaultPricing
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewWall()
	}
	if cfg.Nodes < 0 {
		return cfg, &ConfigError{Field: "Nodes", Reason: "must not be negative"}
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	if cfg.GossipInterval < 0 || cfg.SuspectAfter < 0 || cfg.DownAfter < 0 {
		return cfg, &ConfigError{Field: "GossipInterval", Reason: "detector timings must not be negative"}
	}
	if cfg.GossipInterval == 0 { //lint:allow floateq zero means "unset", not computed
		cfg.GossipInterval = 0.25
	}
	if cfg.SuspectAfter == 0 { //lint:allow floateq zero means "unset", not computed
		cfg.SuspectAfter = 2 * cfg.GossipInterval
	}
	if cfg.DownAfter <= cfg.SuspectAfter {
		cfg.DownAfter = 2 * cfg.SuspectAfter
	}
	if cfg.LocalitySlack <= 0 {
		cfg.LocalitySlack = 2
	}
	if cfg.DefaultDeadline < 0 {
		return cfg, &ConfigError{Field: "DefaultDeadline", Reason: "must not be negative"}
	}
	if cfg.Faults != nil {
		for _, nf := range cfg.Faults.NodeFaults {
			if nf.Node < 0 || nf.Node >= cfg.Nodes {
				return cfg, &ConfigError{Field: "Faults",
					Reason: fmt.Sprintf("NodeFault node %d out of range [0,%d)", nf.Node, cfg.Nodes)}
			}
		}
	}
	if cfg.PriceTrace != nil {
		for _, w := range cfg.PriceTrace.Preemptions {
			if w.Node < 0 || w.Node >= cfg.Nodes {
				return cfg, &ConfigError{Field: "PriceTrace",
					Reason: fmt.Sprintf("preemption node %d out of range [0,%d)", w.Node, cfg.Nodes)}
			}
			if w.End <= w.Start {
				return cfg, &ConfigError{Field: "PriceTrace",
					Reason: fmt.Sprintf("preemption window on node %d must have End > Start", w.Node)}
			}
		}
	}
	return cfg, nil
}

// ConfigError reports an invalid Config field passed to New.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("serving: invalid config: %s %s", e.Field, e.Reason)
}

// Admission and lifecycle errors returned by Invoke.
var (
	// ErrOverloaded means admission control rejected the request: the
	// inflight cap or an entry queue bound was hit. Gateways map it to
	// HTTP 429.
	ErrOverloaded = errors.New("serving: overloaded")
	// ErrDraining means the runtime is draining ahead of shutdown and no
	// longer admits work. Gateways map it to HTTP 503.
	ErrDraining = errors.New("serving: draining")
	// ErrClosed means the runtime has been closed.
	ErrClosed = errors.New("serving: closed")
)

// Result is the terminal outcome of one admitted request: the executor's
// Outcome, delivered on the channel Invoke returns.
type Result = simulator.Outcome
