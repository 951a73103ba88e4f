package serving

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"smiless/internal/clock"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/simulator"
)

// The simulator is the reference implementation of the shared clock
// contract; assert it here (not in package simulator, whose
// //lint:deterministic tag must not grow a clock import).
var _ clock.Clock = (*simulator.Simulator)(nil)

// Runtime is the live control plane: one application served by the
// shared executor against a real (or fake) clock.
//
// Concurrency contract: all mutable state, the executor included, is
// guarded by mu. The driver's Setup and OnWindow callbacks run under it and
// program the executor directly; external callers (gateways, tests) use
// the locked surface: Invoke, Snapshot, LiveCost, Inflight, Rejected,
// Drain, Close and the node admin methods.
type Runtime struct {
	cfg    Config
	driver simulator.Driver
	clk    clock.Scheduler

	mu   sync.Mutex
	ex   *simulator.Executor
	prng *rand.Rand // placement-only stream: p2c draws never perturb timing samples

	// waiters holds each unresolved request's delivery channels, keyed by
	// request id.
	waiters  map[int]waiter
	inflight int
	rejected int
	draining bool
	closed   bool
	started  bool
	drainCh  chan struct{}

	// Loop coordination: wake is poked when an external caller schedules
	// an event the sleeping loop does not know about; sleeping and
	// wakePending back the Quiesced probe fake-clock tests step on.
	wake        chan struct{}
	stopCh      chan struct{}
	sleeping    bool
	wakePending bool
	loopDone    chan struct{}
}

// waiter is one admitted request's delivery end: res carries its Result;
// settled closes when it resolves, releasing the context watcher.
type waiter struct {
	res     chan Result
	settled chan struct{}
}

// elastic is the per-node capacity of the live substrate: large enough
// that no launch ever waits for room.
const elastic = 1 << 30

// New prepares a runtime for the given configuration and driver. The
// runtime is inert until Start.
func New(cfg Config, driver simulator.Driver) (*Runtime, error) {
	if driver == nil {
		return nil, &ConfigError{Field: "driver", Reason: "must not be nil"}
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:      cfg,
		driver:   driver,
		clk:      cfg.Clock,
		prng:     mathx.NewRand(cfg.Seed ^ 0x9e3779b9),
		waiters:  make(map[int]waiter),
		wake:     make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	nodes := make([]hardware.NodeSpec, cfg.Nodes)
	for i := range nodes {
		nodes[i] = hardware.NodeSpec{Cores: elastic, GPUs: elastic}
	}
	rt.ex = simulator.NewExecutor(simulator.Config{
		App: cfg.App, Cluster: hardware.ClusterSpec{Nodes: nodes}, Pricing: cfg.Pricing,
		GossipInterval: cfg.GossipInterval, SuspectAfter: cfg.SuspectAfter, DownAfter: cfg.DownAfter,
		SLA: cfg.SLA, Window: cfg.Window, Interference: cfg.Interference,
		PriceTrace: cfg.PriceTrace, Seed: cfg.Seed, Faults: cfg.Faults,
	}, driver, simulator.Host{Place: rt.placeNode, BatchLinger: cfg.BatchLinger, Resolve: rt.resolve})
	rt.ex.AttachRecorder(cfg.Recorder)
	return rt, nil
}

// Start runs the driver's Setup, arms the decision-window cadence and
// launches the scheduler loop. It must be called exactly once.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	if rt.started || rt.closed {
		rt.mu.Unlock()
		panic("serving: Start called twice or after Close")
	}
	rt.started = true
	rt.ex.Advance(rt.clk.Now())
	rt.driver.Setup(rt.ex)
	// The detector only ticks when something can miss heartbeats: a
	// multi-node pool, or scheduled node faults on a single node.
	rt.ex.StartLive(rt.cfg.Nodes > 1 || (rt.cfg.Faults != nil && len(rt.cfg.Faults.NodeFaults) > 0))
	rt.mu.Unlock()
	go rt.loop()
}

// Now returns the current model time. Safe without the lock (the clock is
// concurrency-safe by contract).
func (rt *Runtime) Now() float64 { return rt.clk.Now() }

// wakeLoop pokes the scheduler loop to re-read the heap; callers hold mu.
// Used by external entry points (Invoke) whose events the sleeping loop
// does not know about; events scheduled from inside the loop are picked up
// when it recomputes its next deadline.
func (rt *Runtime) wakeLoop() {
	if rt.wakePending {
		return
	}
	rt.wakePending = true
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// loop is the scheduler goroutine: sleep until the earliest event deadline,
// then step everything due under the lock. It is the only goroutine that
// steps the executor's heap, so events are always handled in deadline
// order — the same discipline as the simulator's discrete-event loop.
func (rt *Runtime) loop() {
	defer close(rt.loopDone)
	for {
		rt.mu.Lock()
		if rt.closed {
			rt.mu.Unlock()
			return
		}
		rt.sleeping = false
		rt.wakePending = false
		for rt.ex.Step(rt.clk.Now()) {
		}
		// Register the wake-up timer BEFORE publishing sleeping=true and
		// releasing the lock: Quiesced (the fake-clock stepping probe) must
		// only report true once the clock waiter for the earliest deadline
		// exists, otherwise a test advancer could jump time past it via a
		// stale waiter from an abandoned earlier registration.
		var timer <-chan struct{}
		if at, ok := rt.ex.NextDeadline(); ok {
			timer = rt.clk.After(at - rt.clk.Now())
		}
		rt.sleeping = true
		rt.mu.Unlock()

		select {
		case <-rt.stopCh:
			return
		case <-rt.wake:
		case <-timer: // nil (blocks forever) when the heap is empty
		}
	}
}

// Quiesced reports whether the runtime has fully reacted to the current
// clock reading: the scheduler loop is asleep with no pending wake-up and
// no event is due. Fake-clock tests step time by waiting for Quiesced, then
// advancing to the next deadline — that way every event is handled exactly
// at its deadline and latency assertions hold to float precision.
func (rt *Runtime) Quiesced() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.sleeping || rt.wakePending {
		return false
	}
	at, ok := rt.ex.NextDeadline()
	return !ok || at > rt.clk.Now()
}

// Invoke admits one application request and returns a channel that yields
// its terminal Result. It fails fast with ErrOverloaded when the inflight
// cap or an entry queue bound is hit, ErrDraining/ErrClosed during
// shutdown. ctx binds the request to its caller: if ctx is cancelled before
// the request resolves, the request is abandoned — it fails immediately and
// frees its admission slot. Config.DefaultDeadline, when set, bounds the
// request's end-to-end latency.
func (rt *Runtime) Invoke(ctx context.Context) (<-chan Result, error) {
	return rt.InvokeWithDeadline(ctx, 0)
}

// InvokeWithDeadline is Invoke with an explicit end-to-end budget in model
// seconds; budget 0 falls back to Config.DefaultDeadline (0 = unbounded).
// Forwarding, failover and retries all respect the deadline: a request still
// unresolved when it elapses fails with Result.DeadlineExceeded.
func (rt *Runtime) InvokeWithDeadline(ctx context.Context, budget float64) (<-chan Result, error) {
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-ctx compatibility fallback: the caller explicitly declined cancellation
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, ErrClosed
	}
	if rt.draining {
		return nil, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		// The caller was gone before admission: do not burn a slot.
		return nil, err
	}
	if rt.inflight >= rt.cfg.MaxInflight {
		rt.rejected++
		return nil, ErrOverloaded
	}
	for _, src := range rt.cfg.App.Graph.Sources() {
		if rt.ex.QueueLen(src) >= rt.cfg.QueueCap {
			rt.rejected++
			return nil, ErrOverloaded
		}
	}
	if budget <= 0 {
		budget = rt.cfg.DefaultDeadline
	}
	rt.inflight++
	invariant(rt.inflight <= rt.cfg.MaxInflight, "admission slots over-committed: inflight %d > max %d", rt.inflight, rt.cfg.MaxInflight)
	rt.ex.Advance(rt.clk.Now())
	// A request cannot resolve inside Arrive (every completion or failure
	// is a future event), so registering its waiter afterwards is safe.
	inv := rt.ex.Arrive(budget)
	w := waiter{res: make(chan Result, 1), settled: make(chan struct{})}
	rt.waiters[inv.ID()] = w
	// Watch for caller disconnect only when the context can actually be
	// cancelled: fake-clock tests pass context.Background() and stay
	// goroutine-free.
	if ctx.Done() != nil {
		go rt.watchAbandon(ctx, inv, w.settled)
	}
	rt.wakeLoop()
	return w.res, nil
}

// watchAbandon abandons inv when its caller's context is cancelled first.
func (rt *Runtime) watchAbandon(ctx context.Context, inv *simulator.Request, settled <-chan struct{}) {
	select {
	case <-settled:
	case <-ctx.Done():
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if rt.closed {
			return
		}
		rt.ex.Advance(rt.clk.Now())
		if rt.ex.Abandon(inv) {
			rt.wakeLoop()
		}
	}
}

// resolve is the executor's Resolve hook: it delivers a request's terminal
// Result and settles admission and drain accounting. The channel is
// buffered, so delivery never blocks the loop. Callers hold mu.
func (rt *Runtime) resolve(res Result) {
	w, ok := rt.waiters[res.ReqID]
	invariant(ok, "request %d resolved without a waiter", res.ReqID)
	delete(rt.waiters, res.ReqID)
	rt.inflight--
	invariant(rt.inflight >= 0, "admission accounting went negative: inflight %d after resolving request %d", rt.inflight, res.ReqID)
	w.res <- res
	close(w.settled)
	if rt.draining && rt.inflight == 0 {
		close(rt.drainCh)
	}
}

// Drain stops admitting new requests and blocks until every inflight
// request has resolved, or the real-time timeout elapses. It is idempotent;
// concurrent calls share the same drain.
//
//lint:allow ctxflow the wait is bounded by the timeout parameter; a context would duplicate it
func (rt *Runtime) Drain(timeout time.Duration) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ErrClosed
	}
	if !rt.draining {
		rt.draining = true
		rt.drainCh = make(chan struct{})
		if rt.inflight == 0 {
			close(rt.drainCh)
		}
	}
	ch := rt.drainCh
	rt.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-time.After(timeout): //lint:allow clockhygiene drain timeout is a real-time operational bound by contract, not model time
		return fmt.Errorf("serving: drain timed out after %v with %d inflight", timeout, rt.Inflight())
	}
}

// Close stops the scheduler loop and terminates every container, settling
// the cost ledger and open node down time. Close is idempotent.
//
//lint:allow ctxflow shutdown joins the scheduler goroutine, which always terminates once stopCh closes
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.ex.Advance(rt.clk.Now())
	rt.ex.Shutdown()
	close(rt.stopCh)
	started := rt.started
	rt.mu.Unlock()
	if started {
		<-rt.loopDone
	}
}

// --- Locked external observers -----------------------------------------

// Inflight returns the number of admitted-but-unresolved requests.
func (rt *Runtime) Inflight() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.inflight
}

// Rejected returns the number of requests refused by admission control.
func (rt *Runtime) Rejected() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.rejected
}

// Draining reports whether the runtime has stopped admitting requests.
func (rt *Runtime) Draining() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draining || rt.closed
}

// Config returns the effective (defaulted) configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Snapshot returns a deep copy of the run statistics, safe to read while
// the runtime serves. Cost totals cover terminated containers; add
// LiveCost for still-running instances.
func (rt *Runtime) Snapshot() *simulator.RunStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	live := rt.ex.Stats()
	st := *live
	st.CostPerFn = make(map[string]float64, len(live.CostPerFn))
	for k, v := range live.CostPerFn {
		st.CostPerFn[k] = v
	}
	if live.ViolationByFn != nil {
		st.ViolationByFn = make(map[string]int, len(live.ViolationByFn))
		for k, v := range live.ViolationByFn {
			st.ViolationByFn[k] = v
		}
	}
	st.E2E = append([]float64(nil), live.E2E...)
	st.E2EArrival = append([]float64(nil), live.E2EArrival...)
	st.PodSamples = append([]simulator.PodSample(nil), live.PodSamples...)
	return &st
}

// CountsHistoryLocked is the external (locked) counterpart of the
// driver-facing CountsHistory. The result outlives mu, so it is a copy.
func (rt *Runtime) CountsHistoryLocked() []int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]int(nil), rt.ex.CountsHistory()...)
}

// ArrivalTimesLocked is the external (locked) counterpart of the
// driver-facing ArrivalTimes. The result outlives mu, so it is a copy.
func (rt *Runtime) ArrivalTimesLocked() []float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]float64(nil), rt.ex.ArrivalTimes()...)
}

// LiveCost returns the cost accrued by still-live containers.
func (rt *Runtime) LiveCost() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ex.Advance(rt.clk.Now())
	return rt.ex.AccruedCost()
}

// LiveContainers returns the per-function live instance counts, keyed by
// function name.
func (rt *Runtime) LiveContainers() map[string]int {
	return rt.perFunction(rt.ex.LiveInstances)
}

// QueueLens returns the per-function ready-queue depths, keyed by function
// name.
func (rt *Runtime) QueueLens() map[string]int {
	return rt.perFunction(rt.ex.QueueLen)
}

// perFunction evaluates f for every function under the lock.
func (rt *Runtime) perFunction(f func(dag.NodeID) int) map[string]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ids := rt.cfg.App.Graph.Nodes()
	out := make(map[string]int, len(ids))
	for _, id := range ids {
		out[string(id)] = f(id)
	}
	return out
}
