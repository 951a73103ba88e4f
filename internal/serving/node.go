// Elastic node placement and the chaos admin surface: the serving
// runtime's host side of the executor's node layer. The executor owns each
// node's health state machine and the gossip failure detector; the runtime
// decides where launches land — by locality (FNV home node) with
// power-of-two-choices overflow forwarding — and lets chaos tooling crash,
// restart and partition nodes live.
//
// The live substrate is elastic (unbounded per-node capacity): the load
// signal for forwarding is the live container count, and "overflow" means
// the home node is down, suspect, or carrying LocalitySlack more instances
// than the least-loaded healthy peer.

package serving

import (
	"fmt"

	"smiless/internal/dag"
	"smiless/internal/faults"
	"smiless/internal/hardware"
	"smiless/internal/simulator"
)

// NodeInfo is the externally visible snapshot of one node, served by the
// gateway's /nodes endpoint. Alive and Partitioned are ground truth (useful
// for chaos tooling); Health is the detector's current belief.
type NodeInfo struct {
	ID          int    `json:"id"`
	Health      string `json:"health"`
	Alive       bool   `json:"alive"`
	Partitioned bool   `json:"partitioned"`
	Containers  int    `json:"containers"`
}

// placeNode is the executor's Place hook: the function's locality home
// while it is healthy and not overloaded, otherwise the less loaded of two
// healthy candidates (power of two choices; ties to the lower id). The
// affinity policies score nodes through the executor, falling back to home
// when no node is healthy. Placement never fails: capacity is elastic.
// Callers hold mu.
func (rt *Runtime) placeNode(id dag.NodeID, cfg hardware.Config) (int, bool) {
	if rt.cfg.Nodes == 1 {
		return 0, true
	}
	home := simulator.HomeNode(string(id), rt.cfg.Nodes)
	switch rt.cfg.Placement {
	case simulator.PlacePack, simulator.PlaceSpread:
		if n, ok := rt.ex.PlaceAffinity(id, cfg, rt.cfg.Placement == simulator.PlacePack); ok {
			return n, true
		}
		// Every node is suspect or down: place on home anyway — the work
		// is conserved by eviction/failover when a node recovers.
		return home, true
	}
	up := make([]int, 0, rt.cfg.Nodes)
	minLoad := -1
	for i := 0; i < rt.cfg.Nodes; i++ {
		v := rt.ex.Node(i)
		if !v.Placeable {
			continue
		}
		up = append(up, i)
		if minLoad < 0 || v.Containers < minLoad {
			minLoad = v.Containers
		}
	}
	if len(up) == 0 {
		// Every node is suspect or down: place on home anyway — the work
		// is conserved by eviction/failover when the node restarts.
		return home, true
	}
	if h := rt.ex.Node(home); h.Placeable && h.Containers <= minLoad+rt.cfg.LocalitySlack {
		return home, true
	}
	a, b := up[rt.prng.Intn(len(up))], up[rt.prng.Intn(len(up))]
	la, lb := rt.ex.Node(a).Containers, rt.ex.Node(b).Containers
	best := a
	if lb < la || (lb == la && b < a) {
		best = b
	}
	rt.ex.Stats().Forwards++
	return best, true
}

// --- Locked admin surface (gateway chaos endpoints, tests) --------------

// KillNode crashes node i's process immediately. In-flight work on it is
// recovered by the failure detector (or by RestartNode, whichever first).
func (rt *Runtime) KillNode(i int) error { return rt.nodeFault(i, faults.NodeCrash, true) }

// RestartNode restarts a crashed node, evicting the containers that died
// with the old process and failing their work over.
func (rt *Runtime) RestartNode(i int) error { return rt.nodeFault(i, faults.NodeCrash, false) }

// SetPartitioned cuts or heals node i's network. Healing replays held
// completions in order.
func (rt *Runtime) SetPartitioned(i int, partitioned bool) error {
	return rt.nodeFault(i, faults.NodePartition, partitioned)
}

// nodeFault applies one live node fault under the lock.
func (rt *Runtime) nodeFault(i int, kind faults.NodeFaultKind, begin bool) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	if i < 0 || i >= rt.cfg.Nodes {
		return fmt.Errorf("serving: node %d out of range [0,%d)", i, rt.cfg.Nodes)
	}
	rt.ex.Advance(rt.clk.Now())
	rt.ex.NodeFault(kind, i, begin)
	return nil
}

// NodeInfos snapshots every node's state in index order.
func (rt *Runtime) NodeInfos() []NodeInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]NodeInfo, rt.cfg.Nodes)
	for i := range out {
		v := rt.ex.Node(i)
		out[i] = NodeInfo{
			ID: i, Health: v.Health, Alive: v.Alive,
			Partitioned: v.Partitioned, Containers: v.Containers,
		}
	}
	return out
}
