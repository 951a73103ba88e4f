package simulator

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"smiless/internal/apps"
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/placement"
	"smiless/internal/tracing"
	"smiless/internal/units"
)

// Directive is the per-function policy a Driver installs: the realized form
// of (⋆_k, △_k) plus the Auto-scaler's batch and instance counts.
type Directive struct {
	// Config is the hardware configuration for new instances.
	Config hardware.Config
	// Policy selects the cold-start behaviour after a batch completes.
	Policy coldstart.Policy
	// KeepAlive is how long an idle instance survives before termination
	// (KeepAlive/AlwaysOn policies; AlwaysOn ignores it and never expires).
	KeepAlive float64
	// PrewarmLead is the estimated initialization time used to schedule
	// pre-warm starts (μ + n·σ from the profile).
	PrewarmLead float64
	// PathOffset is the predicted delay from request arrival until this
	// function's input is ready (sum of upstream critical-path inference
	// times); used by reactive pre-warming.
	PathOffset float64
	// PrewarmOnArrival launches initialization when an application request
	// arrives, timed so it completes as the function's input arrives
	// (Orion-style "right pre-warming", also SMIless' fallback when a
	// predicted arrival was missed).
	PrewarmOnArrival bool
	// Batch is the maximum invocations executed together per instance.
	Batch int
	// Instances caps reactively launched concurrent instances.
	Instances int
	// MinWarm keeps at least this many instances resident: an idle
	// timeout that would drop the live count below MinWarm re-arms
	// instead of terminating.
	MinWarm int
	// Retry is the gateway's recovery policy for this function: a
	// per-attempt timeout plus exponential backoff with jitter. The zero
	// value disables both (failed work is lost when faults are injected
	// and no retry policy is installed).
	Retry faults.RetryPolicy
	// HedgeDelay launches a duplicate of a single-invocation execution on
	// a second warm instance once the first has run this long; the first
	// completion wins and the loser is discarded (0 disables hedging).
	HedgeDelay float64
}

// normalized fills defaults.
func (d Directive) normalized() Directive {
	if d.Batch < 1 {
		d.Batch = 1
	}
	if d.Instances < 1 {
		d.Instances = 1
	}
	return d
}

// injector is the fault source the executor consults. It is satisfied by
// *faults.Injector; in-package tests install scripted fakes.
type injector interface {
	InitOutcome(fn string) (bool, float64)
	ExecOutcome(fn string) (bool, float64)
	StragglerFactor(fn string) float64
	Jitter() float64
}

// container states.
const (
	cInitializing = iota
	cIdle
	cBusy
	cDead
)

type container struct {
	id        int
	fn        *fnState
	cfg       hardware.Config
	state     int
	initStart units.Duration
	idleEpoch int
	batchSeq  int        // validates in-flight timeout/hedge/failure events
	node      int        // -1 while a launch waits for cluster capacity
	assigned  []*nodeInv // waiting to run when init completes
	batch     []*nodeInv // currently executing
	prewarmed bool       // launched by a pre-warm, not by a waiting request
}

// latWindow is the per-function ring of recent execution durations backing
// ExecLatencyQuantile (hedging thresholds).
const latWindow = 64

type fnState struct {
	id         dag.NodeID
	spec       *apps.FunctionSpec
	class      placement.Class // interference class of spec.Field
	directive  Directive
	containers map[int]*container
	queue      []*nodeInv

	// Batch-linger state: while armed, dispatch onto idle instances is
	// held until the queue fills the batch or the linger deadline passes.
	lingerArmed   bool
	lingerEpoch   int
	lingerExpired bool

	// Resilience bookkeeping: recent execution durations (ring buffer)
	// and failure/success counts for breaker-driving drivers.
	execLat   []float64
	latPos    int
	initFails int
	execFails int
	successes int
}

// recordLatency appends one execution duration to the ring.
func (f *fnState) recordLatency(d float64) {
	if len(f.execLat) < latWindow {
		f.execLat = append(f.execLat, d)
		return
	}
	f.execLat[f.latPos] = d
	f.latPos = (f.latPos + 1) % latWindow
}

// liveCount returns containers not dead.
func (f *fnState) liveCount() int {
	n := 0
	for _, c := range f.containers {
		if c.state != cDead {
			n++
		}
	}
	return n
}

// Request is one admitted application request: a DAG invocation in flight.
// Hosts hold it as an opaque handle (see Executor.Arrive and Abandon).
type Request struct {
	id        int
	arrival   units.Duration
	deadline  units.Duration     // absolute; 0 = unbounded
	pending   map[dag.NodeID]int // unfinished predecessor count
	done      map[dag.NodeID]bool
	remaining int
	failed    bool // dropped: retries exhausted, deadline exceeded or abandoned
	resolved  bool // completed or failed; the outcome has been reported
}

// ID returns the executor-assigned request id (matches tracing spans).
func (r *Request) ID() int { return r.id }

type nodeInv struct {
	inv  *Request
	node dag.NodeID

	// Resilience state: how many times this member has failed (crash,
	// timeout or eviction), whether a hedge twin has been launched for it,
	// and whether this member IS the hedge twin.
	attempts int
	hedged   bool
	isHedge  bool

	// span is the member's trace span when a recorder is attached (nil
	// otherwise; all NodeSpan methods are nil-safe).
	span *tracing.NodeSpan
}

// Outcome is the terminal state of one request, reported to Host.Resolve.
type Outcome struct {
	// ReqID is the executor-assigned request id (matches tracing spans).
	ReqID int
	// Arrival and End are seconds since the run's epoch.
	Arrival float64
	End     float64
	// E2E is End − Arrival.
	E2E float64
	// Failed reports that the request did not complete: retries exhausted,
	// deadline exceeded, or abandoned by its caller.
	Failed bool
	// DeadlineExceeded reports that the request's per-request deadline
	// elapsed before it resolved (implies Failed).
	DeadlineExceeded bool
	// Abandoned reports that the caller went away before the request
	// resolved (implies Failed).
	Abandoned bool
	// SLAViolated reports E2E > SLA for completed requests.
	SLAViolated bool
}

// Host is what a substrate supplies to its Executor beyond Config: where
// launches land, how long dispatch may wait for a fuller batch, and who
// hears about resolved requests. Node capacity is host data too, carried
// by Config.Cluster.
type Host struct {
	// Place picks the node for a launch of fn's cfg, where the executor
	// then reserves cfg's capacity; ok=false leaves the launch
	// capacity-blocked until a release or a node recovery lets it place.
	Place func(fn dag.NodeID, cfg hardware.Config) (node int, ok bool)
	// BatchLinger is the active batch aggregation window (§V-D) in
	// seconds: how long a function with Batch > 1 holds dispatch onto an
	// idle instance waiting for the batch to fill. Zero leaves batching
	// passive (requests join a busy or initializing instance's next
	// batch).
	BatchLinger float64
	// Resolve, when set, receives every request's terminal Outcome.
	Resolve func(Outcome)
}

// Executor is the container state machine both substrates run: container
// lifecycles and per-function state, dispatch with batching, retries,
// hedging and timeouts, per-request deadlines, node health gossip with
// crash, partition and preemption failover, and billing, all driven by
// one deterministic (time, sequence)-ordered event heap. It implements
// ControlPlane, so drivers program against it directly. A host supplies
// time (the simulator's virtual clock, the serving runtime's scheduler
// loop), placement and request delivery; the executor is not safe for
// concurrent use, so a concurrent host serializes every call.
type Executor struct {
	cfg    Config
	driver Driver
	host   Host
	rng    *rand.Rand

	now units.Duration
	// horizon stops the gossip detector re-arming past it; +Inf unless a
	// bounded run sets it.
	horizon units.Duration
	events  eventHeap
	seq     int
	// lastPop records the deadline of the most recently stepped event;
	// only read under -tags smiless_invariants, where Step asserts pops
	// never run backwards.
	lastPop units.Duration

	cluster       *clusterState
	fns           map[dag.NodeID]*fnState
	conts         map[int]*container
	nextCont      int
	nextInv       int
	pendingLaunch []*container // waiting for cluster capacity

	arrivalsThisWindow int
	counts             []int // per-window arrival history
	arrivalTimes       []float64

	stats *RunStats

	// inj is non-nil only when Config.Faults enables injection; every
	// fault code path is gated on it so fault-free runs are bit-compatible
	// with builds that predate the subsystem.
	inj injector

	// rec is the optional span recorder (internal/tracing). Like inj, every
	// emission is gated on it being non-nil and the recorder only observes,
	// so traced and untraced runs are bit-compatible.
	rec *tracing.Recorder
}

// NewExecutor builds the shared state machine for one application. cfg
// must already be validated and defaulted (New and serving.New do both);
// the executor reads every Config field except Placement, which the
// host's Place realizes. Time starts at zero.
func NewExecutor(cfg Config, driver Driver, host Host) *Executor {
	e := &Executor{
		cfg:     cfg,
		driver:  driver,
		host:    host,
		rng:     mathx.NewRand(cfg.Seed),
		horizon: units.Seconds(math.Inf(1)),
		cluster: newClusterState(cfg.Cluster),
		fns:     make(map[dag.NodeID]*fnState),
		conts:   make(map[int]*container),
		stats:   NewRunStats(cfg.SLA),
	}
	for _, id := range cfg.App.Graph.Nodes() {
		spec := cfg.App.Spec(id)
		e.fns[id] = &fnState{
			id:         id,
			spec:       spec,
			class:      placement.ClassOf(spec.Field),
			containers: make(map[int]*container),
			directive: Directive{
				Config: hardware.Config{Kind: hardware.CPU, Cores: 1},
				Policy: coldstart.KeepAlive,
				Batch:  1, Instances: 1, KeepAlive: 60,
			},
		}
	}
	// Guard against the typed-nil interface trap: only assign when the
	// injector is actually enabled.
	if in := faults.NewInjector(cfg.Faults); in != nil {
		e.inj = in
	}
	return e
}

// --- Driver-facing API (ControlPlane) -------------------------------------

var _ ControlPlane = (*Executor)(nil)

// Now returns the current time in seconds.
func (e *Executor) Now() float64 { return e.now.Seconds() }

// App returns the application under test.
func (e *Executor) App() *apps.Application { return e.cfg.App }

// SLA returns the run's SLA bound.
func (e *Executor) SLA() float64 { return e.cfg.SLA }

// Window returns the decision-window length.
func (e *Executor) Window() float64 { return e.cfg.Window }

// fn resolves a function id; a driver addressing a function outside the
// application graph is a programming error.
func (e *Executor) fn(id dag.NodeID) *fnState {
	fs, ok := e.fns[id]
	if !ok {
		panic(fmt.Sprintf("simulator: unknown function %q", id))
	}
	return fs
}

// SetDirective installs the directive for one function and re-dispatches
// any queued work under the new policy (e.g. a burst rescale must be able
// to launch instances for a backlog that accumulated under the old caps).
func (e *Executor) SetDirective(id dag.NodeID, d Directive) {
	fs := e.fn(id)
	fs.directive = d.normalized()
	if len(fs.queue) > 0 {
		e.pump(fs)
	}
}

// GetDirective returns the current directive for one function.
func (e *Executor) GetDirective(id dag.NodeID) Directive { return e.fn(id).directive }

// CountsHistory returns a read-only view of the completed per-window
// arrival counts so far (see ControlPlane for the view contract).
func (e *Executor) CountsHistory() []int {
	return e.counts[:len(e.counts):len(e.counts)]
}

// ArrivalTimes returns a read-only view of every application arrival
// timestamp observed so far (see ControlPlane for the view contract).
func (e *Executor) ArrivalTimes() []float64 {
	return e.arrivalTimes[:len(e.arrivalTimes):len(e.arrivalTimes)]
}

// QueueLen returns the number of ready-but-undispatched invocations of a
// function, letting drivers detect backlog.
func (e *Executor) QueueLen(id dag.NodeID) int { return len(e.fn(id).queue) }

// LiveInstances returns the number of live containers for a function.
func (e *Executor) LiveInstances(id dag.NodeID) int { return e.fn(id).liveCount() }

// EnsureConfigInstance launches one instance of the function's current
// directive configuration unless one is already live (idle, busy or
// initializing). Drivers call it after a re-plan changes a function's
// flavor: the replacement warms in the background while the previous
// generation keeps serving, making the transition hitless.
func (e *Executor) EnsureConfigInstance(id dag.NodeID) {
	fs := e.fn(id)
	for _, c := range fs.containers {
		if c.state != cDead && c.cfg == fs.directive.Config {
			return
		}
	}
	e.launch(fs, fs.directive.Config, true)
}

// EnsureInstances launches instances of the function's current directive
// config until n are live (bounded by the directive's Instances cap). Used
// by drivers that pre-scale ahead of a predicted burst.
func (e *Executor) EnsureInstances(id dag.NodeID, n int) {
	fs := e.fn(id)
	if n > fs.directive.Instances {
		n = fs.directive.Instances
	}
	for fs.liveCount() < n {
		e.launch(fs, fs.directive.Config, true)
	}
}

// HasWarmMatching reports whether an idle or busy instance of the
// function's current directive configuration exists.
func (e *Executor) HasWarmMatching(id dag.NodeID) bool {
	fs := e.fn(id)
	for _, c := range fs.containers {
		if (c.state == cIdle || c.state == cBusy) && c.cfg == fs.directive.Config {
			return true
		}
	}
	return false
}

// RetireMismatched terminates idle instances whose configuration no longer
// matches the directive, keeping at least MinWarm live instances. Drivers
// call it after a re-plan once a matching instance is warm, so fleets do
// not pay for two generations of configuration at once.
func (e *Executor) RetireMismatched(id dag.NodeID) {
	fs := e.fn(id)
	for _, c := range sortedContainers(fs.containers) {
		if c.state == cIdle && c.cfg != fs.directive.Config &&
			fs.liveCount() > fs.directive.MinWarm+1 {
			e.terminate(c)
		}
	}
}

// SchedulePrewarm asks for a warm instance of fn at time at: initialization
// is scheduled to start at max(now, at − PrewarmLead) unless a live
// instance already exists or will be warm in time.
func (e *Executor) SchedulePrewarm(id dag.NodeID, at float64) {
	fs := e.fn(id)
	start := coldstart.PrewarmStart(e.now.Seconds(), at, fs.directive.PrewarmLead)
	e.schedule(&event{at: units.Seconds(start), kind: evPrewarm, fn: id})
}

// FunctionCost returns the cost attributable to one function so far:
// terminated containers' billed cost plus live containers' accrual.
func (e *Executor) FunctionCost(id dag.NodeID) float64 {
	fs := e.fn(id)
	// Accrual is summed in container-id order: float addition is not
	// associative, and map-order summation would let the randomized
	// iteration order perturb driver decisions fed by this value.
	total := e.stats.CostPerFn[string(id)]
	for _, c := range sortedContainers(fs.containers) {
		if c.state != cDead {
			_, cost := e.billedLife(c)
			total += cost
		}
	}
	return total
}

// AccruedCost returns the cost accrued by still-live containers (billed
// from their initialization start to now).
func (e *Executor) AccruedCost() float64 {
	total := 0.0
	for _, c := range sortedContainers(e.conts) {
		if c.state != cDead {
			_, cost := e.billedLife(c)
			total += cost
		}
	}
	return total
}

// Stats exposes the run statistics accumulated so far. Cost totals reflect
// terminated containers only; add AccruedCost for live instances. Drivers
// may both read and bump counters (e.g. DegradedWindows).
func (e *Executor) Stats() *RunStats { return e.stats }

// AttachRecorder installs a span recorder. Attach before the first
// request; attaching mid-run would leave earlier requests untraced. A nil
// recorder detaches tracing.
func (e *Executor) AttachRecorder(r *tracing.Recorder) { e.rec = r }

// TraceRecorder returns the attached span recorder, or nil when the run is
// untraced. Drivers use it to emit decision-window instants.
func (e *Executor) TraceRecorder() *tracing.Recorder { return e.rec }

// FaultsEnabled reports whether fault injection is active for this run.
// Drivers gate their resilience machinery (retry directives, hedging,
// circuit breakers) on it so fault-free runs stay bit-compatible.
func (e *Executor) FaultsEnabled() bool { return e.inj != nil }

// ExecLatencyQuantile returns the p-th percentile (0–100) of the
// function's recent observed execution durations, or 0 with no samples
// yet. Drivers use it to place hedging thresholds.
func (e *Executor) ExecLatencyQuantile(id dag.NodeID, p float64) float64 {
	return mathx.Percentile(e.fn(id).execLat, p)
}

// FnResilience returns the function's cumulative init failures, execution
// failures (crashes and timeouts; node evictions are excluded — they say
// nothing about the flavor) and successful batches — the raw feed for a
// driver's per-function circuit breaker.
func (e *Executor) FnResilience(id dag.NodeID) (initFails, execFails, successes int) {
	fs := e.fn(id)
	return fs.initFails, fs.execFails, fs.successes
}

// sortedContainers returns a map's containers ordered by id, so that
// floating-point accumulation over them is reproducible.
func sortedContainers(m map[int]*container) []*container {
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

// --- Host-facing API ---------------------------------------------------

// Advance moves the executor's clock forward to t seconds. A host whose
// time flows outside the event heap (a wall clock) calls it before each
// entry into the executor.
func (e *Executor) Advance(t float64) {
	invariant(units.Seconds(t) >= e.now, "executor clock ran backwards: %.9f -> %.9f", e.now.Seconds(), t)
	e.now = units.Seconds(t)
}

// NextDeadline returns the time of the earliest pending event, if any.
func (e *Executor) NextDeadline() (float64, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at.Seconds(), true
}

// Step handles the earliest pending event if it is due at or before now,
// advancing the clock to now first, and reports whether it handled one.
func (e *Executor) Step(now float64) bool {
	if len(e.events) == 0 || e.events[0].at.Seconds() > now {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	if invariantsEnabled {
		invariant(ev.at >= e.lastPop, "deadline heap popped out of order: %.9f after %.9f (kind %d)", ev.at.Seconds(), e.lastPop.Seconds(), ev.kind)
		e.lastPop = ev.at
	}
	e.Advance(now)
	e.handle(ev)
	return true
}

// StartLive arms an open-ended run at the current time: a decision window that
// re-arms every Window, the fault plan's scheduled node faults and spot
// preemptions, and — when detector is set — the gossip failure detector.
func (e *Executor) StartLive(detector bool) {
	e.schedule(&event{at: e.now + units.Seconds(e.cfg.Window), kind: evWindow, rearm: true})
	e.scheduleFaults(detector)
}

// scheduleFaults schedules the plan's node faults (times relative to now),
// the first detector tick when detector is set, and the price trace's
// preemption windows.
func (e *Executor) scheduleFaults(detector bool) {
	if e.cfg.Faults != nil {
		for _, nf := range e.cfg.Faults.NodeFaults {
			switch nf.Kind {
			case faults.NodeCrash:
				e.schedule(&event{at: e.now + units.Seconds(nf.Start), kind: evNodeCrash, cid: nf.Node})
				if nf.End > nf.Start {
					e.schedule(&event{at: e.now + units.Seconds(nf.End), kind: evNodeRestart, cid: nf.Node})
				}
			case faults.NodePartition:
				e.schedule(&event{at: e.now + units.Seconds(nf.Start), kind: evPartitionStart, cid: nf.Node})
				e.schedule(&event{at: e.now + units.Seconds(nf.End), kind: evPartitionEnd, cid: nf.Node})
			}
		}
	}
	if detector {
		e.schedule(&event{at: e.now + units.Seconds(e.cfg.GossipInterval), kind: evGossip})
	}
	if e.cfg.PriceTrace != nil {
		for _, w := range e.cfg.PriceTrace.Preemptions {
			e.schedule(&event{at: e.now + units.Seconds(w.Start), kind: evPreempt, cid: w.Node})
			e.schedule(&event{at: e.now + units.Seconds(w.End), kind: evPreemptEnd, cid: w.Node})
		}
	}
}

// Arrive admits one application request at the current time. A positive
// budget bounds its end-to-end latency in seconds: a request still
// unresolved when the budget elapses fails as DeadlineExceeded, and
// retries that could not become ready in time fail it early.
func (e *Executor) Arrive(budget float64) *Request {
	inv := e.arrive()
	if budget > 0 {
		inv.deadline = inv.arrival + units.Seconds(budget)
		e.schedule(&event{at: inv.deadline, kind: evDeadline, inv: inv})
	}
	return inv
}

// Abandon fails a request whose caller went away, purging its queued work.
// It reports whether the request was still unresolved.
func (e *Executor) Abandon(inv *Request) bool {
	if inv.resolved || inv.failed {
		return false
	}
	e.drop(inv, Outcome{Abandoned: true})
	return true
}

// NodeFault applies a node fault now: begin crashes or partitions the
// node; !begin restarts or heals it.
func (e *Executor) NodeFault(kind faults.NodeFaultKind, node int, begin bool) {
	switch {
	case kind == faults.NodeCrash && begin:
		e.onNodeCrash(node)
	case kind == faults.NodeCrash:
		e.onNodeRestart(node)
	case begin:
		e.onPartitionStart(node)
	default:
		e.onPartitionEnd(node)
	}
}

// Shutdown terminates every live container at the current time, settling
// the cost ledger, and settles down time still open on nodes the detector
// holds down. Containers terminate in id order so floating-point cost
// accumulation is deterministic.
func (e *Executor) Shutdown() {
	for _, c := range sortedContainers(e.conts) {
		e.terminate(c)
	}
	for _, n := range e.cluster.nodes {
		if n.health == nodeDown && n.detectorDown {
			e.stats.NodeDownSeconds += e.now.Seconds() - n.downSince
		}
	}
}

// --- Event loop ----------------------------------------------------------

func (e *Executor) schedule(ev *event) {
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.events, ev)
}

// handle routes one due event to its handler. Node-side events (init and
// exec completions or crashes) from a crashed node are dropped — the work
// died with the process — and from a partitioned node they are held on the
// node and replayed in order when the partition heals.
func (e *Executor) handle(ev *event) {
	if ev.nodeSide() {
		if c := e.conts[ev.cid]; c != nil && c.node >= 0 {
			n := e.cluster.nodes[c.node]
			if !n.alive {
				return
			}
			if n.partitioned {
				n.held = append(n.held, ev)
				return
			}
		}
	}
	switch ev.kind {
	case evArrival:
		e.arrive()
	case evInitDone:
		e.onInitDone(ev.cid)
	case evExecDone:
		e.onExecDone(ev.cid, ev.epoch)
	case evIdleTimeout:
		e.onIdleTimeout(ev.cid, ev.epoch)
	case evPrewarm:
		e.onPrewarm(ev.fn)
	case evInitFail:
		e.onInitFail(ev.cid)
	case evExecFail:
		e.onExecFail(ev.cid, ev.epoch)
	case evExecTimeout:
		e.onExecTimeout(ev.cid, ev.epoch)
	case evHedge:
		e.onHedge(ev.cid, ev.epoch)
	case evRetry:
		e.onRetry(ev.ni)
	case evLinger:
		e.onLinger(ev.fn, ev.epoch)
	case evDeadline:
		e.onDeadline(ev.inv)
	case evNodeDown:
		e.onNodeDown(ev.cid)
	case evNodeUp:
		e.onNodeUp(ev.cid)
	case evNodeCrash:
		e.onNodeCrash(ev.cid)
	case evNodeRestart:
		e.onNodeRestart(ev.cid)
	case evPartitionStart:
		e.onPartitionStart(ev.cid)
	case evPartitionEnd:
		e.onPartitionEnd(ev.cid)
	case evGossip:
		e.onGossip()
	case evPreempt:
		e.onPreempt(ev.cid)
	case evPreemptEnd:
		e.onPreemptEnd(ev.cid)
	case evWindow:
		e.counts = append(e.counts, e.arrivalsThisWindow)
		e.arrivalsThisWindow = 0
		e.driver.OnWindow(e, e.now.Seconds())
		e.samplePods()
		if ev.rearm {
			e.schedule(&event{at: ev.at + units.Seconds(e.cfg.Window), kind: evWindow, rearm: true})
		}
	}
}

// --- Requests --------------------------------------------------------------

// arrive admits one request at the current time: record the arrival, fire
// reactive pre-warms, release the entry functions.
func (e *Executor) arrive() *Request {
	e.arrivalsThisWindow++
	e.arrivalTimes = append(e.arrivalTimes, e.now.Seconds())
	g := e.cfg.App.Graph
	inv := &Request{
		id:        e.nextInv,
		arrival:   e.now,
		pending:   make(map[dag.NodeID]int, g.Len()),
		done:      make(map[dag.NodeID]bool, g.Len()),
		remaining: g.Len(),
	}
	e.nextInv++
	if e.rec != nil {
		e.rec.BeginRequest(inv.id, e.now.Seconds())
	}
	for _, id := range g.Nodes() {
		inv.pending[id] = len(g.Predecessors(id))
	}
	// Reactive pre-warming for functions that request it.
	for _, id := range g.Nodes() {
		fs := e.fns[id]
		if fs.directive.PrewarmOnArrival && len(g.Predecessors(id)) > 0 {
			e.SchedulePrewarm(id, e.now.Seconds()+fs.directive.PathOffset)
		}
	}
	// Entry function becomes ready immediately.
	for _, src := range g.Sources() {
		e.enqueue(&nodeInv{inv: inv, node: src})
	}
	return inv
}

// completeInvocation records a request whose every member finished.
// Requests arriving before StatsAfter (the measurement warm-up) count as
// completed but stay out of the latency statistics.
func (e *Executor) completeInvocation(inv *Request) {
	invariant(inv.remaining == 0 && !inv.failed && !inv.resolved, "request %d completed with remaining=%d failed=%t resolved=%t: done-map dedup broke", inv.id, inv.remaining, inv.failed, inv.resolved)
	e2e := (e.now - inv.arrival).Seconds()
	e.stats.Completed++
	var bd tracing.Breakdown
	if e.rec != nil {
		bd = e.rec.CompleteRequest(inv.id, e.now.Seconds())
	}
	violated := e2e > e.cfg.SLA
	if inv.arrival.Seconds() >= e.cfg.StatsAfter {
		e.stats.E2E = append(e.stats.E2E, e2e)
		e.stats.E2EArrival = append(e.stats.E2EArrival, inv.arrival.Seconds())
		if violated {
			e.stats.Violations++
			if e.rec != nil && bd.Blamed != "" {
				if e.stats.ViolationByFn == nil {
					e.stats.ViolationByFn = make(map[string]int)
				}
				e.stats.ViolationByFn[bd.Blamed]++
			}
		}
		if e.rec != nil {
			e.stats.QueueOnPathSeconds += bd.Phases[tracing.PhaseQueue] + bd.Phases[tracing.PhaseBatchWait]
			e.stats.InitOnPathSeconds += bd.Phases[tracing.PhaseColdInit]
			e.stats.ExecOnPathSeconds += bd.Phases[tracing.PhaseExec]
			e.stats.RetryOnPathSeconds += bd.Phases[tracing.PhaseFailedAttempt] + bd.Phases[tracing.PhaseBackoff]
		}
	}
	e.settle(inv, Outcome{SLAViolated: violated})
}

// drop is the terminal-failure path (retries exhausted, deadline exceeded,
// caller abandoned): mark the request failed, purge its remaining members
// from every function queue so no further work is spent on it, and report
// the outcome, whose flags name the cause.
func (e *Executor) drop(inv *Request, o Outcome) {
	if inv.failed || inv.resolved {
		return
	}
	inv.failed = true
	e.stats.FailedInvocations++
	if o.DeadlineExceeded {
		e.stats.DeadlineExceeded++
	}
	if o.Abandoned {
		e.stats.Abandoned++
	}
	if e.rec != nil {
		e.rec.FailRequest(inv.id, e.now.Seconds())
	}
	for _, fs := range e.fns {
		if len(fs.queue) == 0 {
			continue
		}
		q := fs.queue[:0]
		for _, ni := range fs.queue {
			if ni.inv != inv {
				q = append(q, ni)
			}
		}
		fs.queue = q
	}
	o.Failed = true
	e.settle(inv, o)
}

// settle marks a request resolved and reports its outcome to the host.
func (e *Executor) settle(inv *Request, o Outcome) {
	inv.resolved = true
	if e.host.Resolve == nil {
		return
	}
	o.ReqID = inv.id
	o.Arrival, o.End = inv.arrival.Seconds(), e.now.Seconds()
	o.E2E = (e.now - inv.arrival).Seconds()
	e.host.Resolve(o)
}

// onDeadline fails a request whose end-to-end budget elapsed unresolved.
func (e *Executor) onDeadline(inv *Request) {
	if inv == nil || inv.resolved || inv.failed {
		return
	}
	e.drop(inv, Outcome{DeadlineExceeded: true})
}

// --- Dispatch ------------------------------------------------------------

// enqueue adds a ready node invocation and attempts dispatch.
func (e *Executor) enqueue(ni *nodeInv) {
	if e.rec != nil && ni.span == nil {
		ni.span = e.rec.BeginNode(ni.inv.id, string(ni.node), e.now.Seconds(), ni.isHedge)
	}
	fs := e.fns[ni.node]
	fs.queue = append(fs.queue, ni)
	e.pump(fs)
}

// pump dispatches queued invocations onto available containers, launching
// new instances when the directive allows.
func (e *Executor) pump(fs *fnState) {
	for len(fs.queue) > 0 {
		d := fs.directive
		// 1. An idle warm container — unless the batch window holds.
		if c := e.pickIdle(fs); c != nil {
			if e.holdForBatch(fs) {
				return
			}
			e.startBatch(c, tracing.PhaseQueue)
			continue
		}
		// 2. Busy warm containers absorb small overlaps: joining the next
		// batch costs at most one inference cycle, which beats waiting out
		// a cold initialization on a fresh instance.
		// Containers on a node the detector holds down do not count: a
		// batch stuck behind a partition must not absorb the queue.
		busy := 0
		for _, c := range fs.containers {
			if c.state == cBusy && e.servable(c) {
				busy++
			}
		}
		if busy > 0 && len(fs.queue) <= busy*d.Batch {
			return
		}
		// 3. An initializing container with spare assignment capacity.
		// Capacity-blocked launches (not placed on a node yet) do not
		// accept work: binding requests to a container that may never be
		// scheduled would strand them.
		if c := e.pickInitializing(fs); c != nil {
			take := min(d.Batch-len(c.assigned), len(fs.queue))
			c.assigned = append(c.assigned, fs.queue[:take]...)
			fs.queue = fs.queue[take:]
			continue
		}
		// 4. Launch a new instance if under the cap. Instances stranded on
		// a node the detector holds down do not hold the cap: a failed-over
		// member must be able to launch a replacement while the original
		// is unreachable. If the cluster is out of capacity the launch
		// queues unplaced and takes no work; the requests stay in the
		// function queue for whichever instance frees up first.
		if e.servableCount(fs) < d.Instances {
			c := e.launch(fs, d.Config, false)
			if c.node < 0 {
				return
			}
			take := min(d.Batch, len(fs.queue))
			c.assigned = append(c.assigned, fs.queue[:take]...)
			fs.queue = fs.queue[take:]
			continue
		}
		// 5. Saturated: wait for a container to free up.
		return
	}
}

// holdForBatch reports whether dispatch onto an idle instance should wait
// for the batch aggregation window (§V-D): the directive wants batches, the
// queue has not filled one, and the linger deadline has not passed. The
// first held request arms a timer; onLinger releases the partial batch.
func (e *Executor) holdForBatch(fs *fnState) bool {
	d := fs.directive
	if d.Batch <= 1 || e.host.BatchLinger <= 0 {
		return false
	}
	if len(fs.queue) >= d.Batch {
		return false // full batch: dispatch immediately
	}
	if fs.lingerExpired {
		return false // window closed: dispatch the partial batch
	}
	if !fs.lingerArmed {
		fs.lingerArmed = true
		fs.lingerEpoch++
		e.schedule(&event{
			at: e.now + units.Seconds(e.host.BatchLinger), kind: evLinger,
			fn: fs.id, epoch: fs.lingerEpoch,
		})
	}
	return true
}

// onLinger fires when a batch aggregation window expires: whatever is
// queued dispatches as a partial batch.
func (e *Executor) onLinger(id dag.NodeID, epoch int) {
	fs := e.fns[id]
	if fs == nil || !fs.lingerArmed || fs.lingerEpoch != epoch {
		return
	}
	fs.lingerArmed = false
	fs.lingerExpired = true
	e.pump(fs)
	fs.lingerExpired = false
}

// servable reports whether the control plane will route new work to the
// container: its node must not be detected down (or suspect). Unplaced
// launches are handled separately by pickInitializing.
func (e *Executor) servable(c *container) bool {
	return c.node < 0 || e.cluster.nodes[c.node].placeable()
}

// servableCount is liveCount restricted to servable containers: the
// instance cap the dispatcher plans against. Instances stranded behind a
// down or suspect node still exist (and bill) but do not occupy the cap.
func (e *Executor) servableCount(fs *fnState) int {
	n := 0
	for _, c := range fs.containers {
		if c.state != cDead && e.servable(c) {
			n++
		}
	}
	return n
}

func (e *Executor) pickIdle(fs *fnState) *container {
	var best *container
	for _, c := range fs.containers {
		if c.state == cIdle && e.servable(c) && (best == nil || c.id < best.id) {
			best = c
		}
	}
	return best
}

func (e *Executor) pickInitializing(fs *fnState) *container {
	var best *container
	for _, c := range fs.containers {
		if c.state == cInitializing && c.node >= 0 && e.servable(c) &&
			len(c.assigned) < fs.directive.Batch &&
			(best == nil || c.id < best.id) {
			best = c
		}
	}
	return best
}

// --- Container lifecycle ---------------------------------------------------

// launch starts a new container (cold start) on the node the host's Place
// picks. When the cluster lacks capacity the launch queues until resources
// free.
func (e *Executor) launch(fs *fnState, cfg hardware.Config, prewarmed bool) *container {
	c := &container{
		id: e.nextCont, fn: fs, cfg: cfg, state: cInitializing,
		initStart: e.now, prewarmed: prewarmed, node: -1,
	}
	e.nextCont++
	fs.containers[c.id] = c
	e.conts[c.id] = c
	e.stats.Inits++
	node, ok := e.host.Place(fs.id, cfg)
	if !ok {
		e.pendingLaunch = append(e.pendingLaunch, c)
		e.stats.CapacityBlocked++
		return c
	}
	e.place(c, node)
	return c
}

// place binds a launch to its node, reserving its capacity there, and
// starts initializing.
func (e *Executor) place(c *container, node int) {
	c.node = node
	n := e.cluster.nodes[node]
	n.take(c.cfg)
	n.conts++
	e.beginInit(c)
}

// drainPendingLaunches starts queued launches that now fit. Placed
// launches accept queued work once warm (onInitDone pumps).
func (e *Executor) drainPendingLaunches() {
	remaining := e.pendingLaunch[:0]
	for _, c := range e.pendingLaunch {
		if c.state != cInitializing {
			continue
		}
		node, ok := e.host.Place(c.fn.id, c.cfg)
		if !ok {
			remaining = append(remaining, c)
			continue
		}
		e.place(c, node)
	}
	e.pendingLaunch = remaining
}

// PlaceAffinity scores every placeable node with capacity by the class
// pressure the launch would meet there, then packs (highest pressure wins:
// same-class work concentrates) or spreads (lowest pressure wins: the
// launch lands where it is interfered with least). Nodes are visited in index order and strict comparisons
// break ties to the lower index, so the choice is deterministic.
func (e *Executor) PlaceAffinity(id dag.NodeID, cfg hardware.Config, pack bool) (int, bool) {
	class := e.fn(id).class
	best, bestScore := -1, 0.0
	for i, n := range e.cluster.nodes {
		if !n.placeable() || !n.fits(cfg) {
			continue
		}
		score := e.classPressure(i, class)
		if best < 0 || (pack && score > bestScore) || (!pack && score < bestScore) {
			best, bestScore = i, score
		}
	}
	return best, best >= 0
}

// classPressure sums the interference-weighted memory-bandwidth demand that
// node n's live containers exert on the given class. Without a configured
// interference model it degrades to the same-class resident demand, so the
// affinity policies still have a signal. Containers are visited in id order
// for reproducible float accumulation.
func (e *Executor) classPressure(n int, class placement.Class) float64 {
	total := 0.0
	for _, c := range sortedContainers(e.conts) {
		if c.node != n || c.state == cDead {
			continue
		}
		w := placement.DemandOf(c.cfg).MemBW
		if m := e.cfg.Interference; m != nil {
			total += m.Matrix.Coef(class, c.fn.class) * w
		} else if c.fn.class == class {
			total += w
		}
	}
	return total
}

// interferenceFactor returns the configured model's slowdown for container
// c against the other live containers on its node, visited in id order.
func (e *Executor) interferenceFactor(c *container) float64 {
	var residents []placement.Resident
	for _, o := range sortedContainers(e.conts) {
		if o.id == c.id || o.node != c.node || o.state == cDead {
			continue
		}
		residents = append(residents, placement.Resident{
			Class: o.fn.class,
			MemBW: placement.DemandOf(o.cfg).MemBW,
		})
	}
	return e.cfg.Interference.Slowdown(c.fn.class, residents)
}

// beginInit samples the initialization duration for a placed container and
// schedules its completion — or, under fault injection, its crash partway
// through. The duration sample always comes from the ground-truth RNG so
// the fault-free stream is undisturbed.
func (e *Executor) beginInit(c *container) {
	if e.rec != nil {
		e.rec.BeginInit(c.id, string(c.fn.id), c.cfg.String(), c.node, e.now.Seconds(), c.prewarmed)
	}
	dur := c.fn.spec.SampleInit(e.rng, c.cfg)
	if e.cfg.Interference != nil {
		if f := e.interferenceFactor(c); f > 1 {
			e.stats.InterferedInits++
			e.stats.InterferenceSeconds += dur * (f - 1)
			dur *= f
		}
	}
	if e.inj != nil {
		if fail, frac := e.inj.InitOutcome(string(c.fn.id)); fail {
			e.schedule(&event{at: e.now + units.Seconds(dur*frac), kind: evInitFail, cid: c.id})
			return
		}
	}
	e.schedule(&event{at: e.now + units.Seconds(dur), kind: evInitDone, cid: c.id})
}

func (e *Executor) onInitDone(cid int) {
	c := e.conts[cid]
	if c == nil || c.state != cInitializing {
		return
	}
	c.state = cIdle
	e.stats.WarmStarts++
	fs := c.fn
	if e.rec != nil {
		e.rec.EndInit(c.id, e.now.Seconds(), len(c.assigned) > 0, false)
	}
	if len(c.assigned) > 0 {
		// Work waited for this initialization: the cold start was on the
		// request path.
		e.stats.InitGated++
		e.startBatch(c, tracing.PhaseColdInit)
		if c.state == cIdle {
			// Only reachable under fault injection: every assigned member
			// failed before the init completed, so the batch came up empty
			// and the instance idles like a pre-warm.
			e.armIdleTimer(c)
			e.pump(fs)
		}
		return
	}
	// Pre-warmed and nothing waiting: idle with keep-alive timer.
	e.armIdleTimer(c)
	e.pump(fs)
}

// onInitFail handles an injected crash during initialization: the partial
// init time is still billed (the provider charges for the attempt, Eq. 3),
// assigned work returns to the queue, and pump relaunches — the natural
// retry for a cold start.
func (e *Executor) onInitFail(cid int) {
	c := e.conts[cid]
	if c == nil || c.state != cInitializing {
		return
	}
	e.stats.InitFailures++
	c.fn.initFails++
	fs := c.fn
	e.terminate(c)
	e.pump(fs)
}

// startBatch moves assigned/queued work onto the container and runs it.
// Members whose request already failed (retries exhausted elsewhere in the
// DAG) are dropped rather than executed. cause classifies, for tracing, the
// wait each member just finished: a cold initialization the batch was gated
// on, a batch rotation on a busy instance, or plain queueing.
func (e *Executor) startBatch(c *container, cause tracing.Phase) {
	fs := c.fn
	d := fs.directive
	// Any dispatch from this function closes its aggregation window.
	fs.lingerArmed = false
	fs.lingerEpoch++
	batch := c.assigned[:0]
	for _, ni := range c.assigned {
		if !ni.inv.failed {
			batch = append(batch, ni)
		}
	}
	c.assigned = nil
	for len(batch) < d.Batch && len(fs.queue) > 0 {
		ni := fs.queue[0]
		fs.queue = fs.queue[1:]
		if ni.inv.failed {
			continue
		}
		batch = append(batch, ni)
	}
	if len(batch) == 0 {
		return
	}
	c.state = cBusy
	c.batch = batch
	c.idleEpoch++ // invalidate any pending idle timer
	c.batchSeq++  // validates timeout/hedge/crash events for this batch
	if e.rec != nil {
		now := e.now.Seconds()
		for _, ni := range batch {
			ni.span.Dispatch(now, cause, c.initStart.Seconds(), c.id,
				c.cfg.String(), d.Policy.String(), len(batch))
		}
		e.rec.BeginExec(c.id, string(fs.id), c.cfg.String(), c.node, now, len(batch))
	}
	dur := fs.spec.SampleInference(e.rng, c.cfg, len(batch))
	if e.cfg.GPUContention > 0 && c.cfg.Kind == hardware.GPU {
		others := e.cluster.usedGPUOnNode(c.node) - c.cfg.GPUShare
		if others > 0 {
			dur *= 1 + e.cfg.GPUContention*float64(others)/100
		}
	}
	if e.cfg.Interference != nil {
		if f := e.interferenceFactor(c); f > 1 {
			e.stats.InterferedBatches++
			e.stats.InterferenceSeconds += dur * (f - 1)
			dur *= f
		}
	}
	if e.inj != nil {
		if f := e.inj.StragglerFactor(string(fs.id)); f > 1 {
			dur *= f
			e.stats.Stragglers++
		}
	}
	fs.recordLatency(dur)
	e.stats.Executions++
	e.stats.BatchSum += len(batch)
	if e.inj != nil {
		if fail, frac := e.inj.ExecOutcome(string(fs.id)); fail {
			// The instance crashes partway through; the gateway's retry
			// policy decides each member's fate in onExecFail.
			e.schedule(&event{at: e.now + units.Seconds(dur*frac), kind: evExecFail, cid: c.id, epoch: c.batchSeq})
			return
		}
	}
	e.schedule(&event{at: e.now + units.Seconds(dur), kind: evExecDone, cid: c.id, epoch: c.batchSeq})
	if t := d.Retry.Timeout; t > 0 && dur > t {
		e.schedule(&event{at: e.now + units.Seconds(t), kind: evExecTimeout, cid: c.id, epoch: c.batchSeq})
	}
	if h := d.HedgeDelay; h > 0 && len(batch) == 1 && dur > h &&
		!batch[0].isHedge && !batch[0].hedged {
		e.schedule(&event{at: e.now + units.Seconds(h), kind: evHedge, cid: c.id, epoch: c.batchSeq})
	}
}

func (e *Executor) onExecDone(cid, epoch int) {
	c := e.conts[cid]
	if c == nil || c.state != cBusy || c.batchSeq != epoch {
		return
	}
	batch := c.batch
	c.batch = nil
	c.state = cIdle
	fs := c.fn
	now := e.now.Seconds()
	if e.rec != nil {
		e.rec.EndExec(c.id, now, false)
	}

	// Complete each node invocation and release successors. A member whose
	// request already failed, or whose node a hedge twin finished first, is
	// discarded (first completion wins).
	g := e.cfg.App.Graph
	counted := false
	for _, ni := range batch {
		inv := ni.inv
		if inv.failed || inv.done[ni.node] {
			ni.span.Finish(now, false)
			continue
		}
		ni.span.Finish(now, true)
		if ni.isHedge {
			e.stats.HedgesWon++
		}
		if !counted {
			fs.successes++
			counted = true
		}
		inv.done[ni.node] = true
		inv.remaining--
		invariant(inv.remaining >= 0, "request %d finished more members than its DAG has: remaining %d", inv.id, inv.remaining)
		for _, succ := range g.Successors(ni.node) {
			inv.pending[succ]--
			invariant(inv.pending[succ] >= 0, "request %d released successor %s more times than it has predecessors", inv.id, succ)
			if inv.pending[succ] == 0 {
				e.enqueue(&nodeInv{inv: inv, node: succ})
			}
		}
		if inv.remaining == 0 {
			e.completeInvocation(inv)
		}
	}

	// More queued work? Keep the instance busy.
	if len(fs.queue) > 0 {
		e.startBatch(c, tracing.PhaseBatchWait)
		return
	}
	// Apply the cold-start policy.
	switch fs.directive.Policy {
	case coldstart.Prewarm, coldstart.NoMitigation:
		e.terminate(c)
	case coldstart.KeepAlive:
		e.armIdleTimer(c)
	case coldstart.AlwaysOn:
		// Stays resident; no timer.
	}
}

func (e *Executor) onPrewarm(id dag.NodeID) {
	fs := e.fns[id]
	// An idle or initializing instance already satisfies the pre-warm
	// goal. A busy instance does too unless the policy terminates it
	// after its current batch (Prewarm/NoMitigation), in which case it
	// will not be available for the next request.
	terminating := fs.directive.Policy == coldstart.Prewarm || fs.directive.Policy == coldstart.NoMitigation
	for _, c := range fs.containers {
		switch c.state {
		case cIdle, cInitializing:
			return
		case cBusy:
			if !terminating {
				return
			}
		}
	}
	if fs.liveCount() >= fs.directive.Instances {
		return
	}
	e.launch(fs, fs.directive.Config, true)
}

func (e *Executor) armIdleTimer(c *container) {
	d := c.fn.directive
	if d.Policy == coldstart.AlwaysOn {
		return
	}
	ka := d.KeepAlive
	if ka <= 0 {
		// Grace period for drivers that leave KeepAlive unset: long
		// enough that a pre-warmed instance arriving slightly early is
		// not reaped before its request.
		ka = 10 * e.cfg.Window
	}
	c.idleEpoch++
	e.schedule(&event{at: e.now + units.Seconds(ka), kind: evIdleTimeout, cid: c.id, epoch: c.idleEpoch})
}

func (e *Executor) onIdleTimeout(cid, epoch int) {
	c := e.conts[cid]
	if c == nil || c.state != cIdle || c.idleEpoch != epoch {
		return
	}
	if c.fn.liveCount() <= c.fn.directive.MinWarm {
		e.armIdleTimer(c) // floor reached: stay resident, check again later
		return
	}
	e.terminate(c)
}

func (e *Executor) terminate(c *container) {
	if c.state == cDead {
		return
	}
	if e.rec != nil {
		e.rec.ContainerGone(c.id, e.now.Seconds())
	}
	// Requeue any assigned-but-unstarted work.
	if len(c.assigned) > 0 {
		c.fn.queue = append(c.assigned, c.fn.queue...)
		c.assigned = nil
	}
	c.state = cDead
	if c.node >= 0 {
		e.cluster.release(c.node, c.cfg)
		e.cluster.nodes[c.node].conts--
		e.drainPendingLaunches()
	} else {
		// Never placed: remove from the pending queue.
		for i, p := range e.pendingLaunch {
			if p.id == c.id {
				e.pendingLaunch = append(e.pendingLaunch[:i], e.pendingLaunch[i+1:]...)
				break
			}
		}
	}
	life, cost := e.billedLife(c)
	e.stats.AddCost(string(c.fn.id), c.cfg, life, cost)
	delete(c.fn.containers, c.id)
	delete(e.conts, c.id)
}

// billedLife returns a container's billed lifetime in seconds and its
// dollar cost from initialization start to now: static pricing by default,
// or the spot trace's multiplier-weighted integral when one is configured.
// FlatTrace(1) integrates to exactly the raw lifetime, so its bills are
// bit-identical to static pricing.
func (e *Executor) billedLife(c *container) (life, cost float64) {
	life = (e.now - c.initStart).Seconds()
	unit := e.cfg.Pricing.UnitCost(c.cfg)
	if pt := e.cfg.PriceTrace; pt != nil {
		return life, unit * pt.Integrate(c.initStart.Seconds(), e.now.Seconds())
	}
	return life, life * unit
}

// samplePods records pod-count and backend-usage series each window.
func (e *Executor) samplePods() {
	cpuPods, gpuPods := 0, 0
	for _, c := range e.conts {
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
	if len(e.counts) > 0 {
		last = e.counts[len(e.counts)-1]
	}
	e.stats.PodSamples = append(e.stats.PodSamples, PodSample{
		Time: e.now.Seconds(), CPU: cpuPods, GPU: gpuPods, Arrivals: last,
	})
}

// --- Failure handling ------------------------------------------------------

// abortBatch terminates a container whose batch crashed or timed out, then
// routes each in-flight member through the retry policy.
func (e *Executor) abortBatch(c *container) {
	members := c.batch
	c.batch = nil
	fs := c.fn
	for _, ni := range members {
		ni.span.Fail(e.now.Seconds())
	}
	e.terminate(c)
	for _, ni := range members {
		e.retryMember(fs, ni)
	}
	e.pump(fs)
}

// onExecFail handles an injected crash mid-execution. The container dies
// (its billed life still charged) and each batch member is individually
// retried or failed.
func (e *Executor) onExecFail(cid, epoch int) {
	c := e.conts[cid]
	if c == nil || c.state != cBusy || c.batchSeq != epoch {
		return
	}
	e.stats.ExecFailures++
	c.fn.execFails++
	e.abortBatch(c)
}

// onExecTimeout fires when a batch outlives the gateway's per-attempt
// timeout. The hung instance is terminated — re-dispatching onto it would
// just hang again — and the members retry elsewhere.
func (e *Executor) onExecTimeout(cid, epoch int) {
	c := e.conts[cid]
	if c == nil || c.state != cBusy || c.batchSeq != epoch {
		return
	}
	e.stats.Timeouts++
	c.fn.execFails++
	e.abortBatch(c)
}

// retryMember routes one failed batch member through the function's retry
// policy: re-enqueue after backoff while attempts remain, otherwise the
// whole request fails. Hedge twins are never retried — the primary is
// still running. A retry that could not become ready before the request's
// deadline fails the request now rather than scheduling dead work.
func (e *Executor) retryMember(fs *fnState, ni *nodeInv) {
	if ni.inv.failed || ni.isHedge || ni.inv.done[ni.node] {
		return
	}
	ni.attempts++
	pol := fs.directive.Retry
	if !pol.Allow(ni.attempts) {
		e.drop(ni.inv, Outcome{})
		return
	}
	e.stats.Retries++
	ni.hedged = false // a retried attempt may be hedged again
	var u float64
	if e.inj != nil {
		u = e.inj.Jitter()
	} else {
		u = e.rng.Float64()
	}
	delay := pol.Backoff(ni.attempts, u)
	if dl := ni.inv.deadline; dl > 0 && e.now+units.Seconds(delay) >= dl {
		e.drop(ni.inv, Outcome{DeadlineExceeded: true})
		return
	}
	if delay <= 0 {
		e.enqueue(ni)
		return
	}
	ni.span.Backoff(e.now.Seconds(), e.now.Seconds()+delay)
	e.schedule(&event{at: e.now + units.Seconds(delay), kind: evRetry, ni: ni, fn: fs.id})
}

// onRetry re-enqueues a backed-off member once its delay elapses.
func (e *Executor) onRetry(ni *nodeInv) {
	if ni == nil || ni.inv.failed || ni.inv.done[ni.node] {
		return
	}
	e.enqueue(ni)
}

// onHedge duplicates a slow single-member execution onto a second warm
// instance. The first completion wins (onExecDone's done-map dedup); the
// loser's result is discarded.
func (e *Executor) onHedge(cid, epoch int) {
	c := e.conts[cid]
	if c == nil || c.state != cBusy || c.batchSeq != epoch || len(c.batch) != 1 {
		return
	}
	primary := c.batch[0]
	if primary.inv.failed || primary.hedged || primary.isHedge || primary.inv.done[primary.node] {
		return
	}
	h := e.pickIdle(c.fn)
	if h == nil {
		return // no spare warm instance: hedging never launches cold starts
	}
	primary.hedged = true
	twin := &nodeInv{inv: primary.inv, node: primary.node, isHedge: true}
	if e.rec != nil {
		twin.span = e.rec.BeginNode(primary.inv.id, string(primary.node), e.now.Seconds(), true)
	}
	e.stats.HedgesLaunched++
	h.assigned = append(h.assigned, twin)
	e.startBatch(h, tracing.PhaseQueue)
}
