package simulator

import (
	"smiless/internal/apps"
	"smiless/internal/dag"
	"smiless/internal/tracing"
)

// ControlPlane is the surface a Driver programs against: the full
// driver-facing API of the execution substrate. The Executor implements
// it, and both substrates — the Simulator (virtual time, discrete events,
// deterministic) and the online serving runtime in internal/serving
// (wall-clock time, real goroutines) — run one, so SMIless and every
// baseline drive simulated and live clusters with the same code against
// the same state machine. Times are float64 seconds since the run's epoch,
// matching internal/clock.Clock.
type ControlPlane interface {
	// Now returns the current time in seconds since the run started.
	Now() float64
	// App returns the application under management.
	App() *apps.Application
	// SLA returns the run's end-to-end latency bound in seconds.
	SLA() float64
	// Window returns the decision-window length in seconds.
	Window() float64

	// SetDirective installs the per-function policy; GetDirective reads it
	// back.
	SetDirective(id dag.NodeID, d Directive)
	GetDirective(id dag.NodeID) Directive

	// CountsHistory returns completed per-window arrival counts so far;
	// ArrivalTimes returns every application arrival timestamp observed.
	// Both are read-only views of substrate state, not copies: valid until
	// the driver callback returns, so do not retain or modify them. Both
	// histories are append-only and each view's capacity equals its
	// length, so an append on a view reallocates rather than writing into
	// the substrate. Copy whatever must outlive the callback.
	CountsHistory() []int
	ArrivalTimes() []float64

	// QueueLen is the ready-but-undispatched backlog of one function;
	// LiveInstances the number of live containers.
	QueueLen(id dag.NodeID) int
	LiveInstances(id dag.NodeID) int

	// EnsureConfigInstance, EnsureInstances, HasWarmMatching and
	// RetireMismatched manage the per-function fleet across re-plans.
	EnsureConfigInstance(id dag.NodeID)
	EnsureInstances(id dag.NodeID, n int)
	HasWarmMatching(id dag.NodeID) bool
	RetireMismatched(id dag.NodeID)

	// SchedulePrewarm asks for a warm instance of fn at time at.
	SchedulePrewarm(id dag.NodeID, at float64)

	// FunctionCost returns the cost attributable to one function so far;
	// AccruedCost the cost accrued by still-live containers.
	FunctionCost(id dag.NodeID) float64
	AccruedCost() float64
	// Stats exposes the run statistics accumulated so far.
	Stats() *RunStats
	// TraceRecorder returns the attached span recorder, or nil.
	TraceRecorder() *tracing.Recorder

	// FaultsEnabled reports whether fault injection is active; the
	// resilience feed below is only meaningful when it is.
	FaultsEnabled() bool
	ExecLatencyQuantile(id dag.NodeID, p float64) float64
	FnResilience(id dag.NodeID) (initFails, execFails, successes int)
}
