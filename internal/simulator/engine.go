// Package simulator is the serverless-cluster substrate replacing the
// paper's OpenFaaS/Kubernetes testbed (§VI): a discrete-event simulation of
// container lifecycles (initialization, inference, idle keep-alive,
// termination), DAG request routing, batching agents, MPS-style fractional
// GPU allocation, per-second billing, and pre-warm timers.
//
// The container state machine itself is the Executor (executor.go), shared
// with the live serving runtime (internal/serving): the Simulator is that
// executor plus a virtual-time Run loop, capacity-limited placement and
// the legacy instant-detection outages.
//
// The simulator is policy-agnostic: a Driver (the SMIless controller or one
// of the baseline systems) installs per-function Directives and may schedule
// pre-warm events; the simulator realizes them against sampled ground-truth
// timings and accounts cost exactly as Eq. (3) does — billed
// instance-seconds times unit cost.
//
//lint:deterministic
package simulator

import (
	"container/heap"

	"smiless/internal/dag"
	"smiless/internal/units"
)

// eventKind discriminates executor events.
type eventKind int

const (
	evArrival        eventKind = iota // application request arrival (simulator trace replay)
	evInitDone                        // container finished initializing
	evExecDone                        // container finished a batch
	evIdleTimeout                     // keep-alive expired
	evPrewarm                         // scheduled pre-warm point
	evWindow                          // decision-window boundary
	evInitFail                        // injected crash mid-initialization
	evExecFail                        // injected crash mid-execution
	evExecTimeout                     // gateway per-attempt timeout fired
	evHedge                           // hedge point for a slow single execution
	evRetry                           // backed-off retry becomes ready
	evLinger                          // batch aggregation window expired
	evDeadline                        // per-request deadline elapsed
	evNodeDown                        // legacy outage begins (cid = node index)
	evNodeUp                          // legacy outage ends (cid = node index)
	evNodeCrash                       // node process dies silently (cid = node index)
	evNodeRestart                     // crashed node rejoins empty (cid = node index)
	evPartitionStart                  // node becomes unreachable (cid = node index)
	evPartitionEnd                    // partition heals, held completions deliver (cid = node index)
	evGossip                          // health-gossip tick: advance suspect/down/recovered
	evPreempt                         // spot preemption window begins (cid = node index)
	evPreemptEnd                      // preempted capacity returns (cid = node index)
)

// nodeSide reports whether the event is a completion or failure emitted by
// the container's own node — lost with a crashed node, delayed by a
// partition — as opposed to gateway-side timers (timeouts, hedges, idle
// reaping), which the control plane runs regardless of node reachability.
func (e *event) nodeSide() bool {
	switch e.kind {
	case evInitDone, evExecDone, evInitFail, evExecFail:
		return true
	}
	return false
}

// event is one scheduled occurrence. Timestamps are typed simulation time
// (units.Duration since run start) so they cannot silently mix with raw
// millisecond values.
type event struct {
	at   units.Duration
	seq  int // tie-breaker for determinism
	kind eventKind
	// container events (node index for node events)
	cid int
	// idle-timer epoch, batch sequence or linger epoch (stale events are
	// ignored)
	epoch int
	// pre-warm or linger target function
	fn dag.NodeID
	// retried invocation (evRetry)
	ni *nodeInv
	// request whose deadline elapsed (evDeadline)
	inv *Request
	// rearm makes a decision window schedule its successor one Window
	// later (a live host's open-ended cadence; the simulator schedules
	// its finite set of windows up front).
	rearm bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at { //lint:allow floateq exact tie-break: only bit-identical timestamps fall through to the seq ordering
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

var _ heap.Interface = (*eventHeap)(nil)
