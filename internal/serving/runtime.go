package serving

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"smiless/internal/apps"
	"smiless/internal/clock"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/placement"
	"smiless/internal/simulator"
	"smiless/internal/tracing"
)

// The simulator is the reference implementation of the shared clock
// contract; assert it here (not in package simulator, whose
// //lint:deterministic tag must not grow a clock import).
var _ clock.Clock = (*simulator.Simulator)(nil)

// event kinds, mirroring the simulator's event loop.
const (
	evInitDone = iota
	evExecDone
	evIdleTimeout
	evPrewarm
	evInitFail
	evExecFail
	evExecTimeout
	evHedge
	evRetry
	evLinger
	evWindow
	evGossip         // health-detector tick
	evDeadline       // per-request deadline elapsed
	evNodeCrash      // scheduled NodeFault: process dies (cid = node)
	evNodeRestart    // scheduled NodeFault: crashed node rejoins (cid = node)
	evPartitionStart // scheduled NodeFault: node unreachable (cid = node)
	evPartitionEnd   // scheduled NodeFault: partition heals (cid = node)
	evPreempt        // spot preemption window begins (cid = node)
	evPreemptEnd     // preempted capacity returns (cid = node)
)

type event struct {
	at    float64 // model-time deadline in seconds
	seq   int     // FIFO tie-break among equal deadlines
	kind  int
	cid   int // container id (node index for node events)
	epoch int
	fn    dag.NodeID
	ni    *nodeInv
	inv   *appInv // deadline events
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at { //lint:allow floateq heap tie-break: the seq comparison applies only on exact deadline collisions
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// injector is the fault source (satisfied by *faults.Injector); kept as an
// interface so tests can script outcomes.
type injector interface {
	InitOutcome(fn string) (bool, float64)
	ExecOutcome(fn string) (bool, float64)
	StragglerFactor(fn string) float64
	Jitter() float64
}

// Runtime is the live control plane: one application served by a mock
// executor pool against a real (or fake) clock.
//
// Concurrency contract: all mutable state is guarded by mu. The
// simulator.ControlPlane methods (SetDirective, SchedulePrewarm,
// EnsureInstances, Stats, ...) do NOT take the lock themselves — they are
// for the driver, whose Setup and OnWindow callbacks already run under it.
// External callers (gateways, tests) use the locked surface instead:
// Invoke, Snapshot, LiveCost, Inflight, Rejected, Drain, Close.
type Runtime struct {
	cfg    Config
	driver simulator.Driver
	clk    clock.Scheduler

	mu     sync.Mutex
	rng    *rand.Rand
	prng   *rand.Rand // placement-only stream: p2c draws never perturb timing samples
	inj    injector
	rec    *tracing.Recorder
	events eventHeap
	seq    int
	nodes  []*nodeAgent
	// lastPop records the deadline of the most recently popped event; only
	// written under -tags smiless_invariants, where the event loop asserts
	// pops never run backwards.
	lastPop float64

	fns      map[dag.NodeID]*fnState
	conts    map[int]*container
	nextCont int
	nextInv  int

	arrivalsThisWindow int
	counts             []int
	arrivalTimes       []float64
	stats              *simulator.RunStats

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
		rng:      mathx.NewRand(cfg.Seed),
		prng:     mathx.NewRand(cfg.Seed ^ 0x9e3779b9),
		rec:      cfg.Recorder,
		fns:      make(map[dag.NodeID]*fnState),
		conts:    make(map[int]*container),
		stats:    simulator.NewRunStats(cfg.SLA),
		wake:     make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	for _, id := range cfg.App.Graph.Nodes() {
		rt.fns[id] = &fnState{
			id:         id,
			spec:       cfg.App.Spec(id),
			class:      placement.ClassOf(cfg.App.Spec(id).Field),
			containers: make(map[int]*container),
			directive: normalize(simulator.Directive{
				Config: hardware.Config{Kind: hardware.CPU, Cores: 1},
				Policy: coldstart.KeepAlive,
				Batch:  1, Instances: 1, KeepAlive: 60,
			}),
		}
	}
	rt.nodes = make([]*nodeAgent, cfg.Nodes)
	for i := range rt.nodes {
		rt.nodes[i] = &nodeAgent{id: i, health: nodeUp, alive: true}
	}
	// Guard against the typed-nil interface trap: only assign when the
	// injector is actually enabled.
	if in := faults.NewInjector(cfg.Faults); in != nil {
		rt.inj = in
	}
	return rt, nil
}

// normalize fills Directive defaults (the simulator's normalized() is
// unexported).
func normalize(d simulator.Directive) simulator.Directive {
	if d.Batch < 1 {
		d.Batch = 1
	}
	if d.Instances < 1 {
		d.Instances = 1
	}
	return d
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
	rt.driver.Setup(rt)
	now := rt.now()
	rt.schedule(&event{at: now + rt.cfg.Window, kind: evWindow})
	// Scheduled node faults: times are model seconds from the epoch.
	if rt.cfg.Faults != nil {
		for _, nf := range rt.cfg.Faults.NodeFaults {
			switch nf.Kind {
			case faults.NodeCrash:
				rt.schedule(&event{at: now + nf.Start, kind: evNodeCrash, cid: nf.Node})
				if nf.End > nf.Start {
					rt.schedule(&event{at: now + nf.End, kind: evNodeRestart, cid: nf.Node})
				}
			case faults.NodePartition:
				rt.schedule(&event{at: now + nf.Start, kind: evPartitionStart, cid: nf.Node})
				rt.schedule(&event{at: now + nf.End, kind: evPartitionEnd, cid: nf.Node})
			}
		}
	}
	// Spot preemption windows: like scheduled node faults, times are model
	// seconds from the epoch.
	if rt.cfg.PriceTrace != nil {
		for _, w := range rt.cfg.PriceTrace.Preemptions {
			rt.schedule(&event{at: now + w.Start, kind: evPreempt, cid: w.Node})
			rt.schedule(&event{at: now + w.End, kind: evPreemptEnd, cid: w.Node})
		}
	}
	// The detector only ticks when something can miss heartbeats: a
	// multi-node pool, or scheduled node faults on a single node.
	if rt.nodesActive() || (rt.cfg.Faults != nil && len(rt.cfg.Faults.NodeFaults) > 0) {
		rt.schedule(&event{at: now + rt.cfg.GossipInterval, kind: evGossip})
	}
	rt.mu.Unlock()
	go rt.loop()
}

// now returns the current model time. Safe without the lock (the clock is
// concurrency-safe by contract).
func (rt *Runtime) now() float64 { return rt.clk.Now() }

// schedule pushes one future event; callers hold mu.
func (rt *Runtime) schedule(e *event) {
	rt.seq++
	e.seq = rt.seq
	heap.Push(&rt.events, e)
}

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
// then drain everything due under the lock. It is the only goroutine that
// pops the heap, so events are always handled in deadline order — the same
// discipline as the simulator's discrete-event loop.
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
		for len(rt.events) > 0 && rt.events[0].at <= rt.now() {
			e := heap.Pop(&rt.events).(*event)
			if invariantsEnabled {
				invariant(e.at >= rt.lastPop, "deadline heap popped out of order: %.9f after %.9f (kind %d)", e.at, rt.lastPop, e.kind)
				rt.lastPop = e.at
			}
			rt.handle(e)
		}
		// Register the wake-up timer BEFORE publishing sleeping=true and
		// releasing the lock: Quiesced (the fake-clock stepping probe) must
		// only report true once the clock waiter for the earliest deadline
		// exists, otherwise a test advancer could jump time past it via a
		// stale waiter from an abandoned earlier registration.
		var timer <-chan struct{}
		if len(rt.events) > 0 {
			timer = rt.clk.After(rt.events[0].at - rt.now())
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

// handle dispatches one due event; callers hold mu. Node-side events (init
// and exec completions or crashes) from a crashed node are dropped — the
// work died with the process — and from a partitioned node they are held and
// replayed in order when the partition heals.
func (rt *Runtime) handle(e *event) {
	if nodeSideEvent(e.kind) {
		if c := rt.conts[e.cid]; c != nil {
			n := rt.nodes[c.node]
			if !n.alive {
				return
			}
			if n.partitioned {
				n.held = append(n.held, e)
				return
			}
		}
	}
	switch e.kind {
	case evInitDone:
		rt.onInitDone(e.cid)
	case evExecDone:
		rt.onExecDone(e.cid, e.epoch)
	case evIdleTimeout:
		rt.onIdleTimeout(e.cid, e.epoch)
	case evPrewarm:
		rt.onPrewarm(e.fn)
	case evInitFail:
		rt.onInitFail(e.cid)
	case evExecFail:
		rt.onExecFail(e.cid, e.epoch)
	case evExecTimeout:
		rt.onExecTimeout(e.cid, e.epoch)
	case evHedge:
		rt.onHedge(e.cid, e.epoch)
	case evRetry:
		rt.onRetry(e.ni)
	case evLinger:
		rt.onLinger(e.fn, e.epoch)
	case evGossip:
		rt.onGossip()
	case evDeadline:
		rt.onDeadline(e.inv)
	case evNodeCrash:
		rt.onNodeCrash(e.cid)
	case evNodeRestart:
		rt.onNodeRestart(e.cid)
	case evPartitionStart:
		rt.onPartitionStart(e.cid)
	case evPartitionEnd:
		rt.onPartitionEnd(e.cid)
	case evPreempt:
		rt.onPreempt(e.cid)
	case evPreemptEnd:
		rt.onPreemptEnd(e.cid)
	case evWindow:
		rt.counts = append(rt.counts, rt.arrivalsThisWindow)
		rt.arrivalsThisWindow = 0
		rt.driver.OnWindow(rt, rt.now())
		rt.samplePods()
		rt.schedule(&event{at: e.at + rt.cfg.Window, kind: evWindow})
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
	return len(rt.events) == 0 || rt.events[0].at > rt.now()
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
	g := rt.cfg.App.Graph
	for _, src := range g.Sources() {
		if len(rt.fns[src].queue) >= rt.cfg.QueueCap {
			rt.rejected++
			return nil, ErrOverloaded
		}
	}
	if budget <= 0 {
		budget = rt.cfg.DefaultDeadline
	}
	rt.inflight++
	invariant(rt.inflight <= rt.cfg.MaxInflight, "admission slots over-committed: inflight %d > max %d", rt.inflight, rt.cfg.MaxInflight)
	inv, ch := rt.onArrival()
	if budget > 0 {
		inv.deadline = inv.arrival + budget
		rt.schedule(&event{at: inv.deadline, kind: evDeadline, inv: inv})
	}
	// Watch for caller disconnect only when the context can actually be
	// cancelled: fake-clock tests pass context.Background() and stay
	// goroutine-free.
	if ctx.Done() != nil {
		go rt.watchAbandon(ctx, inv)
	}
	rt.wakeLoop()
	return ch, nil
}

// watchAbandon abandons inv when its caller's context is cancelled first.
func (rt *Runtime) watchAbandon(ctx context.Context, inv *appInv) {
	select {
	case <-inv.settled:
	case <-ctx.Done():
		rt.abandon(inv)
	}
}

// abandon fails an admitted request whose caller went away, freeing its
// admission slot and purging its queued members.
func (rt *Runtime) abandon(inv *appInv) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed || inv.resolved || inv.failed {
		return
	}
	rt.stats.Abandoned++
	now := rt.now()
	rt.dropInvocation(inv, Result{
		ReqID: inv.id, Arrival: inv.arrival, End: now,
		E2E: now - inv.arrival, Failed: true, Abandoned: true,
	})
	rt.wakeLoop()
}

// onDeadline fails a request whose end-to-end budget elapsed unresolved.
func (rt *Runtime) onDeadline(inv *appInv) {
	if inv == nil || inv.resolved || inv.failed {
		return
	}
	rt.stats.DeadlineExceeded++
	now := rt.now()
	rt.dropInvocation(inv, Result{
		ReqID: inv.id, Arrival: inv.arrival, End: now,
		E2E: now - inv.arrival, Failed: true, DeadlineExceeded: true,
	})
}

// onArrival admits one request: record the arrival, fire reactive
// pre-warms, release the entry function. Callers hold mu. Port of the
// simulator's onArrival plus the Result channel.
func (rt *Runtime) onArrival() (*appInv, <-chan Result) {
	now := rt.now()
	rt.arrivalsThisWindow++
	rt.arrivalTimes = append(rt.arrivalTimes, now)
	g := rt.cfg.App.Graph
	inv := &appInv{
		id:        rt.nextInv,
		arrival:   now,
		pending:   make(map[dag.NodeID]int, g.Len()),
		done:      make(map[dag.NodeID]bool, g.Len()),
		remaining: g.Len(),
		resCh:     make(chan Result, 1),
		settled:   make(chan struct{}),
	}
	rt.nextInv++
	if rt.rec != nil {
		rt.rec.BeginRequest(inv.id, now)
	}
	for _, id := range g.Nodes() {
		inv.pending[id] = len(g.Predecessors(id))
	}
	for _, id := range g.Nodes() {
		fs := rt.fns[id]
		if fs.directive.PrewarmOnArrival && len(g.Predecessors(id)) > 0 {
			rt.SchedulePrewarm(id, now+fs.directive.PathOffset)
		}
	}
	for _, src := range g.Sources() {
		rt.enqueue(&nodeInv{inv: inv, node: src, readyAt: now})
	}
	return inv, inv.resCh
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
// the cost ledger. Pending requests that have not resolved receive a failed
// Result. Close is idempotent.
//
//lint:allow ctxflow shutdown joins the scheduler goroutine, which always terminates once stopCh closes
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	// Settle the ledger: terminate in id order so float cost accumulation
	// is reproducible.
	ids := make([]int, 0, len(rt.conts))
	for id := range rt.conts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if c := rt.conts[id]; c != nil && c.state != cDead {
			rt.terminate(c)
		}
	}
	// Settle detector-declared down time still open at shutdown.
	now := rt.now()
	for _, n := range rt.nodes {
		if n.health == nodeDown && n.detectorDown {
			rt.stats.NodeDownSeconds += now - n.downSince
		}
	}
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
	st := *rt.stats
	st.CostPerFn = make(map[string]float64, len(rt.stats.CostPerFn))
	for k, v := range rt.stats.CostPerFn {
		st.CostPerFn[k] = v
	}
	if rt.stats.ViolationByFn != nil {
		st.ViolationByFn = make(map[string]int, len(rt.stats.ViolationByFn))
		for k, v := range rt.stats.ViolationByFn {
			st.ViolationByFn[k] = v
		}
	}
	st.E2E = append([]float64(nil), rt.stats.E2E...)
	st.E2EArrival = append([]float64(nil), rt.stats.E2EArrival...)
	st.PodSamples = append([]simulator.PodSample(nil), rt.stats.PodSamples...)
	return &st
}

// CountsHistoryLocked is the external (locked) counterpart of the
// driver-facing CountsHistory. The result outlives mu, so it is a copy.
func (rt *Runtime) CountsHistoryLocked() []int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]int(nil), rt.counts...)
}

// ArrivalTimesLocked is the external (locked) counterpart of the
// driver-facing ArrivalTimes. The result outlives mu, so it is a copy.
func (rt *Runtime) ArrivalTimesLocked() []float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]float64(nil), rt.arrivalTimes...)
}

// LiveCost returns the cost accrued by still-live containers.
func (rt *Runtime) LiveCost() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.AccruedCost()
}

// LiveContainers returns the per-function live instance counts, keyed by
// function name.
func (rt *Runtime) LiveContainers() map[string]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int, len(rt.fns))
	for id, fs := range rt.fns {
		out[string(id)] = fs.liveCount()
	}
	return out
}

// QueueLens returns the per-function ready-queue depths, keyed by function
// name.
func (rt *Runtime) QueueLens() map[string]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int, len(rt.fns))
	for id, fs := range rt.fns {
		out[string(id)] = len(fs.queue)
	}
	return out
}

// --- simulator.ControlPlane --------------------------------------------
// Driver-facing surface; see the Runtime doc for the locking contract.

var _ simulator.ControlPlane = (*Runtime)(nil)

// Now returns the current model time in seconds since the runtime's epoch.
func (rt *Runtime) Now() float64 { return rt.now() }

// App returns the application under management.
func (rt *Runtime) App() *apps.Application { return rt.cfg.App }

// SLA returns the run's end-to-end latency bound.
func (rt *Runtime) SLA() float64 { return rt.cfg.SLA }

// Window returns the decision-window length.
func (rt *Runtime) Window() float64 { return rt.cfg.Window }

// SetDirective installs the per-function policy and re-dispatches queued
// work under it.
func (rt *Runtime) SetDirective(id dag.NodeID, d simulator.Directive) {
	fs := rt.fn(id)
	fs.directive = normalize(d)
	if len(fs.queue) > 0 {
		rt.pump(fs)
	}
}

// GetDirective returns the current directive for one function.
func (rt *Runtime) GetDirective(id dag.NodeID) simulator.Directive {
	return rt.fn(id).directive
}

// CountsHistory returns a read-only view of the completed per-window
// arrival counts so far, valid only while the caller holds mu (see
// simulator.ControlPlane for the view contract).
func (rt *Runtime) CountsHistory() []int {
	return rt.counts[:len(rt.counts):len(rt.counts)]
}

// ArrivalTimes returns a read-only view of every arrival timestamp
// observed so far, valid only while the caller holds mu (see
// simulator.ControlPlane for the view contract).
func (rt *Runtime) ArrivalTimes() []float64 {
	return rt.arrivalTimes[:len(rt.arrivalTimes):len(rt.arrivalTimes)]
}

// QueueLen returns one function's ready-but-undispatched backlog.
func (rt *Runtime) QueueLen(id dag.NodeID) int { return len(rt.fn(id).queue) }

// LiveInstances returns the number of live containers for a function.
func (rt *Runtime) LiveInstances(id dag.NodeID) int { return rt.fn(id).liveCount() }

// EnsureConfigInstance launches one instance of the function's current
// directive configuration unless one is already live.
func (rt *Runtime) EnsureConfigInstance(id dag.NodeID) {
	fs := rt.fn(id)
	for _, c := range fs.containers {
		if c.state != cDead && c.cfg == fs.directive.Config {
			return
		}
	}
	rt.launch(fs, fs.directive.Config, true)
}

// EnsureInstances launches instances of the directive config until n are
// live (bounded by the directive's Instances cap).
func (rt *Runtime) EnsureInstances(id dag.NodeID, n int) {
	fs := rt.fn(id)
	if n > fs.directive.Instances {
		n = fs.directive.Instances
	}
	for fs.liveCount() < n {
		rt.launch(fs, fs.directive.Config, true)
	}
}

// HasWarmMatching reports whether an idle or busy instance of the current
// directive configuration exists.
func (rt *Runtime) HasWarmMatching(id dag.NodeID) bool {
	fs := rt.fn(id)
	for _, c := range fs.containers {
		if (c.state == cIdle || c.state == cBusy) && c.cfg == fs.directive.Config {
			return true
		}
	}
	return false
}

// RetireMismatched terminates idle instances whose configuration no longer
// matches the directive, keeping at least MinWarm live instances.
func (rt *Runtime) RetireMismatched(id dag.NodeID) {
	fs := rt.fn(id)
	ids := make([]int, 0, len(fs.containers))
	for cid := range fs.containers {
		ids = append(ids, cid)
	}
	sort.Ints(ids)
	for _, cid := range ids {
		c := fs.containers[cid]
		if c != nil && c.state == cIdle && c.cfg != fs.directive.Config &&
			fs.liveCount() > fs.directive.MinWarm+1 {
			rt.terminate(c)
		}
	}
}

// SchedulePrewarm asks for a warm instance of fn at time at; initialization
// starts at max(now, at − PrewarmLead).
func (rt *Runtime) SchedulePrewarm(id dag.NodeID, at float64) {
	fs := rt.fn(id)
	start := coldstart.PrewarmStart(rt.now(), at, fs.directive.PrewarmLead)
	rt.schedule(&event{at: start, kind: evPrewarm, fn: id})
}

// FunctionCost returns the cost attributable to one function so far:
// terminated containers' billed cost plus live containers' accrual, summed
// in container-id order for reproducibility.
func (rt *Runtime) FunctionCost(id dag.NodeID) float64 {
	fs := rt.fn(id)
	total := rt.stats.CostPerFn[string(id)]
	now := rt.now()
	for _, c := range sortedConts(fs.containers) {
		if c.state != cDead {
			_, cost := rt.billedLife(c, now)
			total += cost
		}
	}
	return total
}

// AccruedCost returns the cost accrued by still-live containers.
func (rt *Runtime) AccruedCost() float64 {
	total := 0.0
	now := rt.now()
	for _, c := range sortedConts(rt.conts) {
		if c.state != cDead {
			_, cost := rt.billedLife(c, now)
			total += cost
		}
	}
	return total
}

// billedLife returns a container's billed lifetime in model seconds and its
// dollar cost from initialization start to now: static pricing by default,
// or the spot trace's multiplier-weighted integral when one is configured.
// FlatTrace(1) integrates to exactly the raw lifetime, so its bills are
// bit-identical to static pricing.
func (rt *Runtime) billedLife(c *container, now float64) (life, cost float64) {
	life = now - c.initStart
	unit := rt.cfg.Pricing.UnitCost(c.cfg)
	if pt := rt.cfg.PriceTrace; pt != nil {
		return life, unit * pt.Integrate(c.initStart, now)
	}
	return life, life * unit
}

// Stats exposes the live run statistics. Drivers may both read and bump
// counters (e.g. DegradedWindows) from their callbacks; external readers
// use Snapshot instead.
func (rt *Runtime) Stats() *simulator.RunStats { return rt.stats }

// TraceRecorder returns the attached span recorder, or nil.
func (rt *Runtime) TraceRecorder() *tracing.Recorder { return rt.rec }

// FaultsEnabled reports whether fault injection is active.
func (rt *Runtime) FaultsEnabled() bool { return rt.inj != nil }

// ExecLatencyQuantile returns the p-th percentile (0–100) of the function's
// recent observed execution durations, or 0 with no samples yet.
func (rt *Runtime) ExecLatencyQuantile(id dag.NodeID, p float64) float64 {
	return mathx.Percentile(rt.fn(id).execLat, p)
}

// FnResilience returns the function's cumulative init failures, execution
// failures and successful batches.
func (rt *Runtime) FnResilience(id dag.NodeID) (initFails, execFails, successes int) {
	fs := rt.fn(id)
	return fs.initFails, fs.execFails, fs.successes
}

// fn resolves a function id, panicking on unknown ids exactly like the
// simulator (a driver addressing a function outside the app graph is a
// programming error).
func (rt *Runtime) fn(id dag.NodeID) *fnState {
	fs, ok := rt.fns[id]
	if !ok {
		panic(fmt.Sprintf("serving: unknown function %q", id))
	}
	return fs
}

// sortedConts returns a container map's values ordered by id, so that
// floating-point accumulation over them is reproducible.
func sortedConts(m map[int]*container) []*container {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*container, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

// samplePods records pod-count and arrival series each window.
func (rt *Runtime) samplePods() {
	cpuPods, gpuPods := 0, 0
	for _, c := range rt.conts {
		if c.state == cDead {
			continue
		}
		if c.cfg.Kind == hardware.CPU {
			cpuPods++
		} else {
			gpuPods++
		}
	}
	last := 0
	if len(rt.counts) > 0 {
		last = rt.counts[len(rt.counts)-1]
	}
	rt.stats.PodSamples = append(rt.stats.PodSamples, simulator.PodSample{
		Time: rt.now(), CPU: cpuPods, GPU: gpuPods, Arrivals: last,
	})
}
