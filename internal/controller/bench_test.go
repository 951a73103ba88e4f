package controller

import (
	"fmt"
	"runtime"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// BenchmarkControllerWindow measures one SMIless decision window
// (forecast → optimize → autoscale → pre-warm) on WL2 with the
// moving-window predictor, against a simulator already holding 1k or 10k
// arrivals. The window's cost should not depend on how long the history
// is: allocs/window must be equal at both sizes.
func BenchmarkControllerWindow(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping benchmark in -short mode")
	}
	for _, prior := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("prior=%d", prior), func(b *testing.B) {
			app := apps.ImageQuery()
			drv := New(hardware.DefaultCatalog(), app.TrueProfiles(perfmodel.DefaultUncertainty), 2.0, liteOptions(1))
			sim := simulator.MustNew(simulator.Config{App: app, SLA: 2.0, Seed: 1}, drv)
			// Two arrivals a second: the history holds prior arrivals once
			// the run ends.
			tr := trace.Poisson(mathx.NewRand(1), 2, float64(prior)/2)
			sim.MustRun(tr)
			now := sim.Now()
			drv.OnWindow(sim, now) // settle plan and caches
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drv.OnWindow(sim, now)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/window")
			b.ReportMetric(float64(len(sim.ArrivalTimes())), "arrivals")
		})
	}
}
