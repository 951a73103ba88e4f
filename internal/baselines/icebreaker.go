package baselines

import (
	"smiless/internal/coldstart"
	"smiless/internal/dag"
	"smiless/internal/hardware"
	"smiless/internal/perfmodel"
	"smiless/internal/predictor"
	"smiless/internal/simulator"
)

// IceBreaker manages every function independently: a Fourier-based
// predictor (FIP) forecasts per-window invocations; functions with expected
// traffic are kept warm on the hardware with the best speedup-to-cost
// ratio. Because it never looks at the DAG it cannot overlap initialization
// with upstream execution, and because the heavy models have large GPU
// speedups it parks most functions on long-lived GPU instances — the
// behaviour Fig. 9(a) attributes to it.
type IceBreaker struct {
	Catalog  *hardware.Catalog
	Profiles map[dag.NodeID]*perfmodel.Profile
	SLA      float64

	fip     *predictor.FIP
	configs map[dag.NodeID]hardware.Config
	// hist mirrors the substrate's append-only per-window count history as
	// floats; each window appends only the counts completed since the last.
	hist []float64
	// quietWindows counts consecutive windows without arrivals, governing
	// the keep-alive horizon.
	quietWindows int
}

// NewIceBreaker builds the IceBreaker driver.
func NewIceBreaker(cat *hardware.Catalog, profiles map[dag.NodeID]*perfmodel.Profile, sla float64) *IceBreaker {
	return &IceBreaker{Catalog: cat, Profiles: profiles, SLA: sla, fip: predictor.NewFIP()}
}

// Name implements simulator.Driver.
func (b *IceBreaker) Name() string { return "IceBreaker" }

// chooseConfig picks the hardware with the best speedup-to-cost ratio for
// one function, independent of the others: speedup relative to the 1-core
// CPU divided by the unit-cost ratio.
func (b *IceBreaker) chooseConfig(id dag.NodeID) hardware.Config {
	prof := b.Profiles[id]
	base := hardware.Config{Kind: hardware.CPU, Cores: 1}
	baseLat := prof.InferenceTime(base, 1)
	baseCost := b.Catalog.UnitCost(base)
	best := base
	bestRatio := 1.0
	for _, cfg := range b.Catalog.Configs {
		speedup := baseLat / prof.InferenceTime(cfg, 1)
		costRatio := b.Catalog.UnitCost(cfg) / baseCost
		ratio := speedup / costRatio
		if ratio > bestRatio {
			bestRatio = ratio
			best = cfg
		}
	}
	// A function that still cannot meet its per-stage share of the SLA is
	// bumped to its fastest option (IceBreaker is SLA-aware per function).
	stageBudget := b.SLA / float64(len(b.Profiles))
	if prof.InferenceTime(best, 1) > stageBudget {
		for _, cfg := range b.Catalog.Configs {
			if prof.InferenceTime(cfg, 1) < prof.InferenceTime(best, 1) {
				best = cfg
			}
		}
	}
	return best
}

// Setup implements simulator.Driver.
func (b *IceBreaker) Setup(sim simulator.ControlPlane) {
	b.hist = nil
	g := sim.App().Graph
	b.configs = make(map[dag.NodeID]hardware.Config, g.Len())
	for _, id := range g.Nodes() {
		cfg := b.chooseConfig(id)
		b.configs[id] = cfg
		sim.SetDirective(id, simulator.Directive{
			Config:    cfg,
			Policy:    coldstart.KeepAlive,
			KeepAlive: PlatformKeepAlive,
			Batch:     1,
			Instances: 8,
		})
	}
}

// OnWindow implements simulator.Driver: forecast the next window with FIP;
// when traffic is expected, warm every function simultaneously (no DAG
// offsets) and stretch keep-alives.
func (b *IceBreaker) OnWindow(sim simulator.ControlPlane, now float64) {
	counts := sim.CountsHistory()
	if len(counts) < len(b.hist) {
		b.hist = b.hist[:0] // a different ControlPlane: start over
	}
	for _, c := range counts[len(b.hist):] {
		b.hist = append(b.hist, float64(c))
	}
	pred := 0.0
	if len(b.hist) >= 8 {
		pred = b.fip.Predict(b.hist)
	}
	recentlyActive := len(b.hist) > 0 && b.hist[len(b.hist)-1] > 0
	if pred >= 0.5 || recentlyActive {
		for _, id := range sim.App().Graph.Nodes() {
			// Warm everything for the start of the next window — the
			// DAG-unaware simultaneous warm-up of §VII-C3.
			sim.SchedulePrewarm(id, now+sim.Window())
			d := sim.GetDirective(id)
			d.KeepAlive = PlatformKeepAlive * 2 // predicted-busy horizon
			sim.SetDirective(id, d)
		}
	}
}
