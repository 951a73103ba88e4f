package smiless_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"smiless"
)

func TestNewApplicationValid(t *testing.T) {
	app, err := smiless.NewApplication("demo",
		map[smiless.NodeID]string{"a": "IR", "b": "QA"},
		[][2]smiless.NodeID{{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if app.Graph.Len() != 2 {
		t.Errorf("nodes = %d, want 2", app.Graph.Len())
	}
	if app.Spec("a").Model != "ResNet50" {
		t.Errorf("spec mapping wrong: %q", app.Spec("a").Model)
	}
}

func TestNewApplicationErrors(t *testing.T) {
	if _, err := smiless.NewApplication("bad",
		map[smiless.NodeID]string{"a": "NOPE"}, nil); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := smiless.NewApplication("bad",
		map[smiless.NodeID]string{"a": "IR", "b": "QA"},
		[][2]smiless.NodeID{{"a", "b"}, {"b", "a"}}); err == nil {
		t.Error("cycle should fail")
	}
	// Two entry points.
	if _, err := smiless.NewApplication("bad",
		map[smiless.NodeID]string{"a": "IR", "b": "QA"}, nil); err == nil {
		t.Error("two entries should fail")
	}
}

func TestNewApplicationDeterministicOrder(t *testing.T) {
	fns := map[smiless.NodeID]string{}
	var edges [][2]smiless.NodeID
	names := []string{"IR", "FR", "HAP", "DB"}
	fns["entry"] = "OD"
	for i := 0; i < 12; i++ {
		id := smiless.NodeID(fmt.Sprintf("n%02d", i))
		fns[id] = names[i%len(names)]
		edges = append(edges, [2]smiless.NodeID{"entry", id})
	}
	var first []smiless.NodeID
	for k := 0; k < 20; k++ {
		app, err := smiless.NewApplication("fan", fns, edges)
		if err != nil {
			t.Fatal(err)
		}
		nodes := app.Graph.Nodes()
		if k == 0 {
			first = nodes
			if !slices.IsSorted(nodes) {
				t.Fatalf("nodes %v not in sorted NodeID order", nodes)
			}
			continue
		}
		if !slices.Equal(nodes, first) {
			t.Fatalf("build %d: nodes %v, first build %v", k, nodes, first)
		}
	}
}

func TestNewApplicationReportsFirstUnknownName(t *testing.T) {
	fns := map[smiless.NodeID]string{"d": "NOPE-D", "b": "NOPE-B", "a": "IR", "c": "NOPE-C"}
	for k := 0; k < 20; k++ {
		_, err := smiless.NewApplication("bad", fns, nil)
		if err == nil || !strings.Contains(err.Error(), `"NOPE-B"`) {
			t.Fatalf("error %v, want the lexically first bad entry (b: NOPE-B)", err)
		}
	}
}

func TestPublicOptimizeFlow(t *testing.T) {
	app := smiless.ImageQuery()
	profiles, err := smiless.ProfileApplication(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := smiless.Optimize(smiless.DefaultCatalog(), smiless.OptimizeRequest{
		Graph: app.Graph, Profiles: profiles, SLA: 2.0, IT: 15, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Eval.E2ELatency > 2.0 {
		t.Errorf("optimize result: feasible=%v E2E=%v", res.Feasible, res.Eval.E2ELatency)
	}
	if len(res.Plan.Configs) != app.Graph.Len() {
		t.Error("incomplete plan")
	}
}

func TestPublicEvaluateFlow(t *testing.T) {
	app := smiless.VoiceAssistant()
	r := rand.New(rand.NewSource(2))
	tr := smiless.PoissonTrace(r, 0.05, 400)
	st, err := smiless.Evaluate(smiless.SystemSMIless, app, tr, 2.0, smiless.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != tr.Len() {
		t.Fatalf("completed %d/%d", st.Completed, tr.Len())
	}
	if st.TotalCost <= 0 {
		t.Error("no cost recorded")
	}
}

func TestPublicSimulatorWithCustomDriver(t *testing.T) {
	app := smiless.Pipeline(2)
	profiles := app.TrueProfiles(3)
	drv := smiless.NewSMIless(smiless.DefaultCatalog(), profiles, 3.0, smiless.WithSeed(1))
	sim, err := smiless.NewSimulator(app, drv, 3.0, smiless.WithSeed(1))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	st, err := sim.Run(&smiless.Trace{Horizon: 120, Arrivals: []float64{10, 50, 90}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Completed != 3 {
		t.Errorf("completed %d/3", st.Completed)
	}
}

func TestTableIInventoryExported(t *testing.T) {
	if len(smiless.Functions) != 12 {
		t.Errorf("Functions = %d entries, want 12", len(smiless.Functions))
	}
	if smiless.Functions["TRS"].Model != "T5" {
		t.Error("TRS should map to T5")
	}
}

func TestCatalogsExported(t *testing.T) {
	if smiless.DefaultCatalog().Len() != 15 {
		t.Error("default catalog should have 15 configs")
	}
	if smiless.CPUOnlyCatalog().Len() != 5 {
		t.Error("CPU-only catalog should have 5 configs")
	}
}
