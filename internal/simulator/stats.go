package simulator

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
)

// PodSample is one per-window snapshot of live pods and arrivals, used by
// the burst-adaptation experiment (Fig. 14).
type PodSample struct {
	Time     float64
	CPU, GPU int
	Arrivals int
}

// RunStats aggregates everything the paper's figures report about a run.
type RunStats struct {
	SLA float64

	// Cost accounting (dollars).
	TotalCost  float64
	CostPerFn  map[string]float64
	CPUSeconds float64 // billed CPU-container seconds
	GPUSeconds float64 // billed GPU-container seconds
	CPUCost    float64
	GPUCost    float64

	// Latency.
	E2E []float64
	// E2EArrival[i] is the arrival time of the request behind E2E[i].
	E2EArrival []float64
	Completed  int
	Violations int

	// Container lifecycle.
	Inits int // container initializations (Fig. 9b numerator)
	// WarmStarts counts initializations that ran to completion — containers
	// that became warm — NOT dispatches served by an already-warm instance.
	// For warm-hit accounting subtract InitGated from Executions instead.
	WarmStarts      int
	Executions      int // batches run
	BatchSum        int // total invocations across batches
	InitGated       int // batches whose start waited on initialization
	CapacityBlocked int // launches delayed by cluster capacity

	// Critical-path attribution (zero unless a tracing recorder was
	// attached). Each completed measured request's end-to-end latency is
	// decomposed along its critical path; these accumulate the per-phase
	// seconds across requests. Queue includes batch wait; Retry includes
	// failed attempts and backoff.
	QueueOnPathSeconds float64
	InitOnPathSeconds  float64
	ExecOnPathSeconds  float64
	RetryOnPathSeconds float64
	// ViolationByFn attributes each measured SLA violation to the function
	// the critical-path pass blamed. Nil unless traced.
	ViolationByFn map[string]int

	// Resilience (all zero on fault-free runs).
	InitFailures      int // injected crashes during initialization
	ExecFailures      int // injected crashes during execution
	Timeouts          int // gateway per-attempt timeouts fired
	Stragglers        int // executions inflated by straggler injection
	Retries           int // member re-dispatches after a failure
	HedgesLaunched    int // duplicate executions started
	HedgesWon         int // hedge twins that finished before the primary
	FailedInvocations int // requests lost after exhausting retries
	NodeDownEvents    int // node outages begun (scheduled or detector-declared)
	EvictedContainers int // containers killed by node outages
	BreakerTrips      int // circuit-breaker openings (driver-reported)
	DegradedWindows   int // windows served on the degraded fallback plan

	// Forecasting quality (populated only when the driver runs a trained
	// forecaster; ForecastName == "" means no forecast accounting and keeps
	// legacy summaries byte-identical). The reports carry per-horizon
	// MAE/sMAPE, the upper-bound violation rate, and refit/drift counts for
	// each Online Predictor role.
	ForecastName  string
	ForecastIT    forecast.QualityReport
	ForecastCount forecast.QualityReport

	// Heterogeneous placement and spot pricing (all zero unless an
	// interference model or a price trace with preemption windows is
	// configured).
	InterferedInits     int     // initializations slowed by co-location interference
	InterferedBatches   int     // executions slowed by co-location interference
	InterferenceSeconds float64 // extra runtime attributable to interference
	Preemptions         int     // spot preemption windows that withdrew a node
	PreemptedContainers int     // containers evicted by spot preemptions

	// Multi-node control plane (all zero on single-node / first-fit runs).
	Forwards         int     // launches placed off the locality home node (p2c overflow)
	Failovers        int     // in-flight members re-forwarded off a dead or partitioned node
	NodeDownSeconds  float64 // cumulative detector-declared down time across nodes
	DeadlineExceeded int     // requests failed by their per-request deadline
	Abandoned        int     // requests whose caller went away before resolution

	PodSamples []PodSample
}

// NewRunStats returns empty statistics for a run with the given SLA. Both
// substrates' executors report through it, so live and simulated runs share
// the identical schema.
func NewRunStats(sla float64) *RunStats {
	return &RunStats{SLA: sla, CostPerFn: make(map[string]float64)}
}

// AddCost accrues one terminated container's billed life against the run
// totals and the per-function ledger.
func (r *RunStats) AddCost(fn string, cfg hardware.Config, life, cost float64) {
	r.TotalCost += cost
	r.CostPerFn[fn] += cost
	if cfg.Kind == hardware.CPU {
		r.CPUSeconds += life
		r.CPUCost += cost
	} else {
		r.GPUSeconds += life
		r.GPUCost += cost
	}
}

// ViolationRate returns the fraction of measured requests exceeding the
// SLA (requests arriving during the warm-up window are not measured).
func (r *RunStats) ViolationRate() float64 {
	if len(r.E2E) == 0 {
		return 0
	}
	return float64(r.Violations) / float64(len(r.E2E))
}

// ReinitFraction returns container initializations per completed request,
// the Fig. 9(b) metric.
func (r *RunStats) ReinitFraction() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.Inits) / float64(r.Completed)
}

// CPUGPURatio returns billed CPU seconds over billed GPU seconds (Fig. 9a);
// +Inf when no GPU time was billed.
func (r *RunStats) CPUGPURatio() float64 {
	if r.GPUSeconds <= 0 {
		if r.CPUSeconds <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return r.CPUSeconds / r.GPUSeconds
}

// MeanBatch returns the average realized batch size.
func (r *RunStats) MeanBatch() float64 {
	if r.Executions == 0 {
		return 0
	}
	return float64(r.BatchSum) / float64(r.Executions)
}

// LatencyPercentile returns the p-th percentile of E2E latency.
func (r *RunStats) LatencyPercentile(p float64) float64 {
	return mathx.Percentile(r.E2E, p)
}

// Availability returns the fraction of requests that completed out of all
// that resolved (completed + failed); 1 when nothing failed.
func (r *RunStats) Availability() float64 {
	total := r.Completed + r.FailedInvocations
	if total == 0 {
		return 1
	}
	return float64(r.Completed) / float64(total)
}

// resilienceActive reports whether any fault/recovery counter is non-zero;
// fault-free summaries omit the resilience segment so their output is
// byte-identical to pre-fault builds.
func (r *RunStats) resilienceActive() bool {
	return r.InitFailures > 0 || r.ExecFailures > 0 || r.Timeouts > 0 ||
		r.Stragglers > 0 || r.Retries > 0 || r.HedgesLaunched > 0 ||
		r.FailedInvocations > 0 || r.NodeDownEvents > 0 ||
		r.BreakerTrips > 0 || r.DegradedWindows > 0 ||
		r.Forwards > 0 || r.Failovers > 0 || r.NodeDownSeconds > 0 ||
		r.DeadlineExceeded > 0 || r.Abandoned > 0
}

// placementActive reports whether the heterogeneous-placement subsystem
// left any trace on the run; summaries of runs with it disabled omit the
// placement segment so their output stays byte-identical.
func (r *RunStats) placementActive() bool {
	return r.InterferedInits > 0 || r.InterferedBatches > 0 ||
		r.InterferenceSeconds > 0 || r.Preemptions > 0 || r.PreemptedContainers > 0
}

// Summary renders a human-readable digest for CLI output.
func (r *RunStats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%d cost=$%.4f violations=%.1f%% ", r.Completed, r.TotalCost, r.ViolationRate()*100)
	fmt.Fprintf(&b, "p50=%.2fs p95=%.2fs p99=%.2fs ", r.LatencyPercentile(50), r.LatencyPercentile(95), r.LatencyPercentile(99))
	fmt.Fprintf(&b, "inits=%d reinit/req=%.2f cpu:gpu=%.2f meanBatch=%.2f", r.Inits, r.ReinitFraction(), r.CPUGPURatio(), r.MeanBatch())
	if r.ForecastName != "" {
		fmt.Fprintf(&b, "\nforecaster=%s it[%s] count[%s]",
			r.ForecastName, r.ForecastIT, r.ForecastCount)
	}
	if r.resilienceActive() {
		fmt.Fprintf(&b, "\navailability=%.2f%% failed=%d retries=%d timeouts=%d ",
			r.Availability()*100, r.FailedInvocations, r.Retries, r.Timeouts)
		fmt.Fprintf(&b, "crashes=%d/%d stragglers=%d hedges=%d/%d evicted=%d trips=%d degraded=%d",
			r.InitFailures, r.ExecFailures, r.Stragglers, r.HedgesWon, r.HedgesLaunched,
			r.EvictedContainers, r.BreakerTrips, r.DegradedWindows)
		if r.Forwards > 0 || r.Failovers > 0 || r.NodeDownSeconds > 0 || r.DeadlineExceeded > 0 || r.Abandoned > 0 {
			fmt.Fprintf(&b, "\nforwards=%d failovers=%d nodeDown=%.2fs deadlineExceeded=%d abandoned=%d",
				r.Forwards, r.Failovers, r.NodeDownSeconds, r.DeadlineExceeded, r.Abandoned)
		}
	}
	if r.placementActive() {
		fmt.Fprintf(&b, "\ninterfered=%d/%d interferenceExtra=%.2fs preemptions=%d preempted=%d",
			r.InterferedInits, r.InterferedBatches, r.InterferenceSeconds,
			r.Preemptions, r.PreemptedContainers)
	}
	return b.String()
}

// TopCostFunctions returns function names ordered by descending cost.
func (r *RunStats) TopCostFunctions() []string {
	names := make([]string, 0, len(r.CostPerFn))
	for n := range r.CostPerFn {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if r.CostPerFn[names[i]] != r.CostPerFn[names[j]] { //lint:allow floateq comparator tie-break: exact equality decides when the name ordering applies
			return r.CostPerFn[names[i]] > r.CostPerFn[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
