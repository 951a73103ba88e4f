package controller

import (
	"slices"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/forecast"
	"smiless/internal/hardware"
	"smiless/internal/mathx"
	"smiless/internal/perfmodel"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// rescanEvents is the full-history reference for windowEvents: the first
// arrival of every non-empty window, recomputed from scratch.
func rescanEvents(arr []float64, w float64) []float64 {
	var out []float64
	lastWin := -1
	for _, a := range arr {
		if wi := int(a / w); wi != lastWin {
			out = append(out, a)
			lastWin = wi
		}
	}
	return out
}

// straddleTrace mixes sparse Poisson traffic with bursts that straddle
// window boundaries (arrivals just before, exactly at and just after a
// boundary) and leaves long runs of empty windows between them.
func straddleTrace(seed int64, horizon float64) *trace.Trace {
	var bursts []float64
	for k := 7.0; k < horizon-1; k += 23 {
		bursts = append(bursts, k-0.02, k-0.01, k, k+0.01, k+0.5)
	}
	return trace.Merge(
		trace.Poisson(mathx.NewRand(seed), 0.05, horizon),
		&trace.Trace{Horizon: horizon, Arrivals: bursts},
	)
}

// recordingForecaster records every observation streamed into it and never
// trains, so the controller keeps its moving-window estimates.
type recordingForecaster struct{ obs *[]forecast.Observation }

func (f recordingForecaster) Name() string                     { return "recording" }
func (f recordingForecaster) Fit([]forecast.Observation) error { return forecast.ErrShortSeries }
func (f recordingForecaster) Predict(h int) []float64          { return make([]float64, h) }
func (f recordingForecaster) Update(o forecast.Observation)    { *f.obs = append(*f.obs, o) }
func (f recordingForecaster) Clone(int64) forecast.Forecaster  { return f }

// checkedDriver runs SMIless and, after every window, compares the
// controller's incremental state with a full rescan of the history.
type checkedDriver struct {
	*SMIless
	t       *testing.T
	itObs   *[]forecast.Observation
	windows int
}

func (d *checkedDriver) OnWindow(cp simulator.ControlPlane, now float64) {
	fed := 0
	if d.itObs != nil {
		fed = len(*d.itObs)
	}
	d.SMIless.OnWindow(cp, now)
	d.windows++
	want := rescanEvents(cp.ArrivalTimes(), cp.Window())
	if !slices.Equal(d.events.times, want) {
		d.t.Fatalf("t=%v: cached events %v, rescan %v", now, d.events.times, want)
	}
	if d.itObs == nil {
		return
	}
	iats, cnts := alignedSeries(want, cp.CountsHistory(), cp.Window())
	if got, full := (*d.itObs)[fed:], forecast.Obs(iats, cnts)[fed:]; !slices.Equal(got, full) {
		d.t.Fatalf("t=%v: fed %v, full alignedSeries tail %v", now, got, full)
	}
	if len(*d.itObs) != len(iats) {
		d.t.Fatalf("t=%v: %d observations fed, alignedSeries has %d", now, len(*d.itObs), len(iats))
	}
}

func newChecked(t *testing.T, app *apps.Application, opts Options) *checkedDriver {
	profiles := app.TrueProfiles(perfmodel.DefaultUncertainty)
	return &checkedDriver{SMIless: New(hardware.DefaultCatalog(), profiles, 3.0, opts), t: t}
}

func runChecked(t *testing.T, d *checkedDriver, app *apps.Application, tr *trace.Trace) {
	t.Helper()
	before := d.windows
	sim := simulator.MustNew(simulator.Config{App: app, SLA: 3.0, Seed: 5}, d)
	if st := sim.MustRun(tr); st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
	if d.windows == before {
		t.Fatal("no window ran")
	}
}

// TestWindowEventsMatchRescan: after every window the incrementally folded
// event series equals a full rescan of the arrival history, including
// across a driver reused on later runs. The last pair needs the Setup
// reset: the second run already holds more arrivals at its first window
// than the first run left folded, so only Setup tells the runs apart.
func TestWindowEventsMatchRescan(t *testing.T) {
	app := apps.Pipeline(2)
	d := newChecked(t, app, liteOptions(5))
	runChecked(t, d, app, straddleTrace(5, 400))
	runChecked(t, d, app, straddleTrace(6, 150))
	runChecked(t, d, app, &trace.Trace{Horizon: 30, Arrivals: []float64{0.2, 5.5}})
	runChecked(t, d, app, &trace.Trace{Horizon: 30, Arrivals: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 3.3}})
}

// TestObserveForecastsMatchesAlignedSeries: the incremental feed streams
// exactly the tail a full alignedSeries rebuild yields at each window.
func TestObserveForecastsMatchesAlignedSeries(t *testing.T) {
	app := apps.Pipeline(2)
	var itObs []forecast.Observation
	opts := liteOptions(8)
	opts.UseLSTM = true
	opts.TrainAfter = 40
	opts.NewForecaster = func(cfg forecast.Config) forecast.Forecaster {
		if cfg.Role == forecast.RoleInterArrival {
			return recordingForecaster{obs: &itObs}
		}
		return recordingForecaster{obs: new([]forecast.Observation)}
	}
	d := newChecked(t, app, opts)
	d.itObs = &itObs
	runChecked(t, d, app, straddleTrace(8, 600))
	if len(itObs) < 20 {
		t.Fatalf("only %d inter-arrival observations fed", len(itObs))
	}
}

// histCP is a ControlPlane exposing only an arrival history.
type histCP struct {
	simulator.ControlPlane
	arr []float64
}

func (c histCP) ArrivalTimes() []float64 { return c.arr }
func (c histCP) Window() float64         { return 1 }

// TestWindowEventsResetOnShrink: a history shorter than what was already
// folded means a different ControlPlane; the series starts over instead of
// slicing out of range.
func TestWindowEventsResetOnShrink(t *testing.T) {
	s := &SMIless{}
	long := []float64{0.5, 0.7, 3.2, 3.9, 8.0}
	if got := s.windowEvents(histCP{arr: long}); !slices.Equal(got, []float64{0.5, 3.2, 8.0}) {
		t.Fatalf("events %v", got)
	}
	short := []float64{1.1, 1.2, 2.0}
	if got := s.windowEvents(histCP{arr: short}); !slices.Equal(got, rescanEvents(short, 1)) {
		t.Fatalf("after shrink: events %v, want %v", got, rescanEvents(short, 1))
	}
}
