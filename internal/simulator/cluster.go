package simulator

import (
	"fmt"
	"math/rand"

	"smiless/internal/hardware"
)

// nodeHealth is the control plane's view of one node, advanced by the
// deterministic gossip failure detector: Up → Suspect once SuspectAfter
// passes without a heartbeat, Suspect → Down after DownAfter, and back to
// Up once heartbeats resume.
type nodeHealth int

const (
	nodeUp nodeHealth = iota
	nodeSuspect
	nodeDown
)

// String names the health state for traces and reports.
func (h nodeHealth) String() string {
	switch h {
	case nodeUp:
		return "up"
	case nodeSuspect:
		return "suspect"
	case nodeDown:
		return "down"
	}
	return "unknown"
}

// nodeState is one node agent's state machine: local free capacity plus the
// liveness bookkeeping the gossip failure detector drives. health is what
// the control plane believes; alive and partitioned are ground truth the
// control plane cannot see directly.
type nodeState struct {
	spec      hardware.NodeSpec
	freeCores int
	freeGPU   int // in percent (10% MPS slices)
	conts     int // live containers placed here

	health      nodeHealth
	alive       bool // process running (false between crash and restart)
	partitioned bool // unreachable: completions held until heal
	lastBeat    float64
	downSince   float64
	// detectorDown marks a down verdict issued by the gossip detector (as
	// opposed to a scheduled legacy Outage): only those verdicts are
	// reversed when heartbeats resume.
	detectorDown bool

	// held buffers node-side events (init/exec completions and crashes)
	// that fired while the node was partitioned; they are replayed in
	// order when the partition heals.
	held []*event
}

// placeable reports whether the control plane will route new work to the
// node. Suspect nodes are skipped too: placement avoids doubtful nodes even
// before the detector commits to down.
func (n *nodeState) placeable() bool { return n.health == nodeUp }

// fits reports whether the node has free capacity for cfg.
func (n *nodeState) fits(cfg hardware.Config) bool {
	switch cfg.Kind {
	case hardware.CPU:
		return n.freeCores >= cfg.Cores
	case hardware.GPU:
		return n.freeGPU >= cfg.GPUShare
	}
	return false
}

// take reserves cfg's resources on the node.
func (n *nodeState) take(cfg hardware.Config) {
	switch cfg.Kind {
	case hardware.CPU:
		n.freeCores -= cfg.Cores
	case hardware.GPU:
		n.freeGPU -= cfg.GPUShare
	}
}

// freeFor returns the free capacity relevant to cfg's kind, the p2c load
// signal (more free = less loaded).
func (n *nodeState) freeFor(cfg hardware.Config) int {
	if cfg.Kind == hardware.GPU {
		return n.freeGPU
	}
	return n.freeCores
}

// clusterState is the thin placement layer over the per-node state
// machines.
type clusterState struct {
	nodes []*nodeState
}

func newClusterState(spec hardware.ClusterSpec) *clusterState {
	c := &clusterState{}
	for _, n := range spec.Nodes {
		c.nodes = append(c.nodes, &nodeState{
			spec:      n,
			freeCores: n.Cores,
			freeGPU:   n.GPUs * 100,
			health:    nodeUp,
			alive:     true,
		})
	}
	return c
}

// len returns the node count.
func (c *clusterState) len() int { return len(c.nodes) }

// isDown reports whether the control plane considers node i out of service.
func (c *clusterState) isDown(i int) bool { return c.nodes[i].health == nodeDown }

// setDown marks node i in or out of service with instant detection (the
// legacy Outage path). Capacity accounting is untouched: evicted containers
// release through the normal path and the node returns with its full
// capacity when the outage ends.
func (c *clusterState) setDown(i int, down bool) {
	if down {
		c.nodes[i].health = nodeDown
	} else {
		c.nodes[i].health = nodeUp
	}
}

// allocate finds a placeable node with capacity for cfg (first fit),
// returning the node index or false when the cluster is full.
func (c *clusterState) allocate(cfg hardware.Config) (int, bool) {
	for i, n := range c.nodes {
		if n.placeable() && n.fits(cfg) {
			return i, true
		}
	}
	return -1, false
}

// allocateP2C places cfg by locality with power-of-two-choices overflow:
// the function's home node keeps the launch while it has capacity;
// otherwise two placeable candidates are sampled from prng and the less
// loaded one (more free capacity of cfg's kind, ties to the lower index)
// takes it. forwarded reports an off-home placement.
func (c *clusterState) allocateP2C(cfg hardware.Config, home int, prng *rand.Rand) (node int, forwarded, ok bool) {
	if h := c.nodes[home]; h.placeable() && h.fits(cfg) {
		return home, false, true
	}
	cand := make([]int, 0, len(c.nodes))
	for i, n := range c.nodes {
		if i != home && n.placeable() && n.fits(cfg) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1, false, false
	}
	best := cand[0]
	if len(cand) > 1 {
		a, b := cand[prng.Intn(len(cand))], cand[prng.Intn(len(cand))]
		best = a
		if c.nodes[b].freeFor(cfg) > c.nodes[a].freeFor(cfg) ||
			(c.nodes[b].freeFor(cfg) == c.nodes[a].freeFor(cfg) && b < a) {
			best = b
		}
	}
	return best, true, true
}

// release returns cfg's resources to node i.
func (c *clusterState) release(i int, cfg hardware.Config) {
	n := c.nodes[i]
	switch cfg.Kind {
	case hardware.CPU:
		n.freeCores += cfg.Cores
		if n.freeCores > n.spec.Cores {
			panic(fmt.Sprintf("simulator: core over-release on node %d", i))
		}
	case hardware.GPU:
		n.freeGPU += cfg.GPUShare
		if n.freeGPU > n.spec.GPUs*100 {
			panic(fmt.Sprintf("simulator: GPU over-release on node %d", i))
		}
	}
}

// usedGPUOnNode returns the GPU percentage currently allocated on node i.
func (c *clusterState) usedGPUOnNode(i int) int {
	return c.nodes[i].spec.GPUs*100 - c.nodes[i].freeGPU
}

// HomeNode maps a function name onto its locality home node with a 32-bit
// FNV-1a hash — stable across runs and platforms. Shared with the serving
// runtime so simulated and live placement agree on homes.
func HomeNode(fn string, nodes int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(fn); i++ {
		h ^= uint32(fn[i])
		h *= prime32
	}
	return int(h % uint32(nodes))
}
