package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"smiless/internal/apps"
	"smiless/internal/dag"
	"smiless/internal/simulator"
	"smiless/internal/trace"
)

// runDigest condenses the seeded outcome of one run: completion and
// violation counts, the exact bits of the total cost, and an FNV-1a hash
// over the bits of every end-to-end latency in completion order.
func runDigest(st *simulator.RunStats) string {
	h := fnv.New64a()
	for _, v := range st.E2E {
		fmt.Fprintf(h, "%x,", math.Float64bits(v))
	}
	return fmt.Sprintf("completed=%d violations=%d cost=%x e2e=%x",
		st.Completed, st.Violations, math.Float64bits(st.TotalCost), h.Sum64())
}

// goldenFanOut builds an 8-branch × 4-deep fan-out (one OD entry feeding
// chains of Table I functions) with dag.New in a fixed insertion order.
func goldenFanOut(branches, depth int) *apps.Application {
	g := dag.New()
	specs := map[dag.NodeID]*apps.FunctionSpec{}
	names := []string{"IR", "FR", "HAP", "DB", "NER", "TM", "TRS", "TG"}
	root := dag.NodeID("entry")
	g.MustAddNode(root, apps.Functions["OD"].Model)
	specs[root] = apps.Functions["OD"]
	for br := 0; br < branches; br++ {
		prev := root
		for d := 0; d < depth; d++ {
			id := dag.NodeID(fmt.Sprintf("b%dd%d", br, d))
			fn := apps.Functions[names[(br+d)%len(names)]]
			g.MustAddNode(id, fn.Model)
			specs[id] = fn
			g.MustAddEdge(prev, id)
			prev = id
		}
	}
	return &apps.Application{Name: fmt.Sprintf("FanOut%dx%d", branches, depth), Graph: g, Specs: specs}
}

// TestControllerGoldenRunStats pins SMIless's seeded run outcomes to
// digests committed here, so a refactor of the controller or of the
// substrate's driver-facing accessors that changes any decision fails
// across commits (TestReplayIsByteIdentical only compares two runs of
// one binary).
func TestControllerGoldenRunStats(t *testing.T) {
	if testing.Short() {
		t.Skip("nine multi-hour simulations; skipped under -short")
	}
	type run struct {
		name string
		app  *apps.Application
		tr   *trace.Trace
		lstm bool
	}
	var runs []run
	for _, seed := range []int64{101, 202} {
		tr := EvalTrace(seed, 7200)
		for _, app := range []*apps.Application{appByName("WL1"), appByName("WL2"), appByName("WL3"), goldenFanOut(8, 4)} {
			runs = append(runs, run{name: fmt.Sprintf("%s/seed=%d", app.Name, seed), app: app, tr: tr})
		}
	}
	runs = append(runs, run{
		name: "Image-Query/lstm/seed=7",
		app:  appByName("WL2"),
		tr:   trace.Poisson(rand.New(rand.NewSource(7)), 0.25, 1000),
		lstm: true,
	})
	want := map[string]string{
		"AMBER-Alert/seed=101":     "completed=1759 violations=75 cost=401b4d2157bd9df2 e2e=dc8e1fdc09432dfa",
		"Image-Query/seed=101":     "completed=1759 violations=45 cost=400ff0c4ec45064f e2e=ba3a2bec970acdf3",
		"Voice-Assistant/seed=101": "completed=1759 violations=49 cost=4021cdb343826a3d e2e=541262ad5c09d382",
		"FanOut8x4/seed=101":       "completed=1759 violations=100 cost=4045a4631d194fa5 e2e=d416d3c9b1a0bdc5",
		"AMBER-Alert/seed=202":     "completed=1727 violations=49 cost=401d128d87e751a3 e2e=84140db0726bc5e6",
		"Image-Query/seed=202":     "completed=1727 violations=40 cost=4010b74b93647f32 e2e=238f77d2344416a1",
		"Voice-Assistant/seed=202": "completed=1727 violations=40 cost=402085997396a82e e2e=5b712523ac233d3",
		"FanOut8x4/seed=202":       "completed=1727 violations=83 cost=4046edd1ec188a54 e2e=cb90ae324bb94881",
		"Image-Query/lstm/seed=7":  "completed=233 violations=0 cost=3fd1876d1fc15501 e2e=f260921aad86e400",
	}
	for _, r := range runs {
		st, err := Run(SysSMIless, RunParams{App: r.app, SLA: 2, Seed: 11, UseLSTM: r.lstm}, r.tr)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := runDigest(st); got != want[r.name] {
			t.Errorf("%s: digest\n got  %s\n want %s", r.name, got, want[r.name])
		}
	}
}
