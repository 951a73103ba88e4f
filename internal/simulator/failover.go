package simulator

import (
	"strconv"

	"smiless/internal/tracing"
	"smiless/internal/units"
)

// NodeView is one node's state as the executor sees it: the detector's
// current belief (Health, Placeable), the ground truth behind it (Alive,
// Partitioned), and the live containers placed there.
type NodeView struct {
	Health      string
	Placeable   bool
	Alive       bool
	Partitioned bool
	Containers  int
}

// Node returns node i's view.
func (e *Executor) Node(i int) NodeView {
	n := e.cluster.nodes[i]
	return NodeView{
		Health: n.health.String(), Placeable: n.placeable(),
		Alive: n.alive, Partitioned: n.partitioned, Containers: n.conts,
	}
}

// onPreempt withdraws a spot node: the provider reclaims the capacity, the
// node's containers are evicted, and their in-flight work fails over to
// live peers without charging retry attempts — the reclaim notice is the
// infrastructure's failure, not the attempt's. The down verdict is not the
// detector's (detectorDown stays false), so resumed heartbeats cannot lift
// it early; only the window's end does.
func (e *Executor) onPreempt(n int) {
	if n < 0 || n >= e.cluster.len() || e.cluster.isDown(n) {
		return
	}
	e.cluster.setDown(n, true)
	e.stats.Preemptions++
	before := e.stats.EvictedContainers
	e.evictNode(n, e.failoverMember)
	e.stats.PreemptedContainers += e.stats.EvictedContainers - before
	e.nodeInstant("preempt", n)
	e.pumpAll()
}

// onPreemptEnd returns reclaimed spot capacity to the pool: the node
// accepts allocations again and capacity-blocked launches place. A node
// the detector independently declared down stays down until its
// heartbeats actually resume: the window's end lifts only the preemption's
// own verdict.
func (e *Executor) onPreemptEnd(n int) {
	if n < 0 || n >= e.cluster.len() || !e.cluster.isDown(n) || e.cluster.nodes[n].detectorDown {
		return
	}
	e.cluster.setDown(n, false)
	e.nodeInstant("preempt_end", n)
	e.drainPendingLaunches()
	e.pumpAll()
}

// evictNode terminates every container on node n (id order for
// determinism) and routes each in-flight batch member through route
// (retryMember for legacy outages, failoverMember for detected crashes).
// Assigned-but-unstarted members requeue via terminate.
func (e *Executor) evictNode(n int, route func(*fnState, *nodeInv)) {
	for _, c := range e.containersOn(n) {
		if c.state == cDead {
			continue
		}
		e.stats.EvictedContainers++
		members := c.batch
		c.batch = nil
		fs := c.fn
		for _, ni := range members {
			ni.span.Fail(e.now.Seconds())
		}
		e.terminate(c)
		for _, ni := range members {
			route(fs, ni)
		}
	}
}

// containersOn returns the live containers placed on node n, in id order.
// Callers snapshot before acting: launches their actions place on n are
// not part of the set.
func (e *Executor) containersOn(n int) []*container {
	var out []*container
	for _, c := range sortedContainers(e.conts) {
		if c.node == n && c.state != cDead {
			out = append(out, c)
		}
	}
	return out
}

// pumpAll re-dispatches queued work in graph order for determinism.
func (e *Executor) pumpAll() {
	for _, id := range e.cfg.App.Graph.Nodes() {
		if fs := e.fns[id]; len(fs.queue) > 0 {
			e.pump(fs)
		}
	}
}

// nodeInstant records a node-lifecycle marker when tracing is attached.
func (e *Executor) nodeInstant(name string, n int) {
	if e.rec != nil {
		e.rec.AddInstant(e.now.Seconds(), name, []tracing.KV{{Key: "node", Val: strconv.Itoa(n)}})
	}
}

// onNodeCrash kills a node's process — ground truth only. Its containers
// stay registered and the control plane keeps routing to them; their
// node-side completions are dropped until the gossip detector marks the
// node down and fails the in-flight work over.
func (e *Executor) onNodeCrash(n int) {
	node := e.cluster.nodes[n]
	if !node.alive {
		return
	}
	node.alive = false
	e.nodeInstant("node_crash", n)
}

// onNodeRestart brings a crashed node back, empty. Containers the control
// plane still believes live on it died with the process: they are evicted
// and their in-flight work fails over — whether or not the detector had
// noticed the crash, a fast flap must not lose requests. Health recovery
// (allocations resuming) waits for the next gossip tick to observe the
// resumed heartbeats.
func (e *Executor) onNodeRestart(n int) {
	node := e.cluster.nodes[n]
	if node.alive {
		return
	}
	e.evictNode(n, e.failoverMember)
	node.alive = true
	e.nodeInstant("node_restart", n)
	e.pumpAll()
}

// onPartitionStart makes a node unreachable: its containers keep running
// but their completions are held until the partition heals.
func (e *Executor) onPartitionStart(n int) {
	node := e.cluster.nodes[n]
	if node.partitioned || !node.alive {
		return
	}
	node.partitioned = true
	e.nodeInstant("partition_start", n)
}

// onPartitionEnd heals a partition: held node-side events replay in their
// original order at heal time, racing any failed-over twins through the
// idempotent first-completion-wins dedup — no request completes twice.
func (e *Executor) onPartitionEnd(n int) {
	node := e.cluster.nodes[n]
	if !node.partitioned {
		return
	}
	node.partitioned = false
	held := node.held
	node.held = nil
	e.nodeInstant("partition_heal", n)
	for _, he := range held {
		e.handle(he)
	}
}

// onGossip is one deterministic failure-detector tick: reachable nodes
// heartbeat, unreachable ones age toward suspect and down, and nodes whose
// heartbeats resumed recover. Nodes are visited in index order so detector
// side effects (evictions, failovers, pumps) are reproducible.
func (e *Executor) onGossip() {
	now := e.now.Seconds()
	for i, n := range e.cluster.nodes {
		if n.alive && !n.partitioned {
			n.lastBeat = now
			// Only reverse the detector's own verdicts: a node a legacy
			// Outage or a preemption holds down stays down until its
			// scheduled end.
			if n.health == nodeSuspect || (n.health == nodeDown && n.detectorDown) {
				e.recoverNode(i)
			}
			continue
		}
		gap := now - n.lastBeat
		if n.health == nodeUp && gap >= e.cfg.SuspectAfter {
			n.health = nodeSuspect
			e.nodeInstant("node_suspect", i)
		}
		if n.health != nodeDown && gap >= e.cfg.DownAfter {
			e.markNodeDown(i)
		}
	}
	if e.now < e.horizon {
		e.schedule(&event{at: e.now + units.Seconds(e.cfg.GossipInterval), kind: evGossip})
	}
}

// recoverNode returns a node to service once its heartbeats resume: down
// time settles into NodeDownSeconds, capacity-blocked launches place, and
// queued work re-pumps.
func (e *Executor) recoverNode(i int) {
	n := e.cluster.nodes[i]
	invariant(n.health == nodeSuspect || (n.health == nodeDown && n.detectorDown), "node %d recovered from illegal state %s (detectorDown=%t): only suspect or detector-declared down nodes recover", i, n.health, n.detectorDown)
	if n.health == nodeDown {
		e.stats.NodeDownSeconds += e.now.Seconds() - n.downSince
	}
	n.health = nodeUp
	n.detectorDown = false
	e.nodeInstant("node_recovered", i)
	e.drainPendingLaunches()
	e.pumpAll()
}

// markNodeDown commits the detector's verdict: the node leaves the
// placement pool and every in-flight request bound to it fails over to a
// live peer. A crashed node's containers are evicted (they died with the
// process); a partitioned node's keep running — their eventual completions
// race the failover twins, and the done-map dedup keeps exactly one.
func (e *Executor) markNodeDown(i int) {
	n := e.cluster.nodes[i]
	invariant(n.health != nodeDown, "node %d marked down twice", i)
	n.health = nodeDown
	n.detectorDown = true
	n.downSince = e.now.Seconds()
	e.stats.NodeDownEvents++
	e.nodeInstant("node_down", i)
	if !n.alive {
		e.evictNode(i, e.failoverMember)
	} else if n.partitioned {
		e.twinNodeInflight(i)
	}
	e.pumpAll()
}

// twinNodeInflight duplicates every in-flight member on node i onto a live
// peer. The originals keep executing behind the partition; twin and
// original race, first completion wins.
func (e *Executor) twinNodeInflight(i int) {
	for _, c := range e.containersOn(i) {
		members := append(append([]*nodeInv(nil), c.batch...), c.assigned...)
		for _, ni := range members {
			if ni.inv.failed || ni.inv.done[ni.node] || ni.isHedge {
				continue
			}
			e.failoverMember(c.fn, &nodeInv{inv: ni.inv, node: ni.node})
		}
	}
}

// failoverMember re-forwards one in-flight member to a live peer. Unlike
// retryMember it charges no retry attempt and applies no backoff: the
// failure is the infrastructure's, not the attempt's, and the detection
// delay already cost latency. The deadline/retry budgets still bound total
// work — a member that keeps landing on dying nodes keeps its attempt
// count, so its next genuine failure routes through the retry policy.
func (e *Executor) failoverMember(_ *fnState, ni *nodeInv) {
	if ni.inv.failed || ni.inv.done[ni.node] || ni.isHedge {
		return
	}
	e.stats.Failovers++
	ni.hedged = false
	e.enqueue(ni)
}
