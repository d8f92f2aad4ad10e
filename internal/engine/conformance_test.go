// Registry-driven conformance tests: every algorithm that registers with
// the engine is held to the same contract — complete coverage of the miner
// packages, prompt context cancellation, and byte-identical determinism.
package engine_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	_ "repro/internal/engine/all"
	"repro/internal/minertest"
	"repro/internal/rng"
)

// minerPackages is the authoritative list of miner packages in this
// repository; the registry must cover exactly these. Adding a miner
// package without registering it (or registering one under a surprise
// name) fails here.
var minerPackages = map[string]string{
	"apriori":    "internal/apriori",
	"closed":     "internal/charm",
	"closedrows": "internal/carpenter",
	"eclat":      "internal/eclat",
	"fpgrowth":   "internal/fpgrowth",
	"fusion":     "internal/core",
	"maximal":    "internal/maximal",
	"seqfusion":  "internal/seqfusion",
	"topk":       "internal/topk",
}

func TestRegistryCoversEveryMinerPackage(t *testing.T) {
	names := engine.Names()
	if len(names) != len(minerPackages) {
		t.Fatalf("registry has %d algorithms %v, want %d", len(names), names, len(minerPackages))
	}
	for _, name := range names {
		if _, ok := minerPackages[name]; !ok {
			t.Errorf("unexpected registered algorithm %q", name)
		}
		a, err := engine.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, a.Name())
		}
	}
	for name := range minerPackages {
		if _, err := engine.Get(name); err != nil {
			t.Errorf("miner package %s not registered as %q: %v", minerPackages[name], name, err)
		}
	}
}

// TestFusionAdapterRejectsInvalidOptions pins that the adapter passes
// non-zero option values through to core's validation instead of silently
// rewriting them — only zero means "use the default".
func TestFusionAdapterRejectsInvalidOptions(t *testing.T) {
	alg, err := engine.Get("fusion")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alg.Mine(context.Background(), datagen.Diag(8), engine.Options{MinCount: 4, Tau: -1}); err == nil {
		t.Fatal("negative Tau accepted")
	}
	if _, err := alg.Mine(context.Background(), datagen.Diag(8), engine.Options{MinCount: 4, InitPoolMaxSize: -2}); err == nil {
		t.Fatal("negative InitPoolMaxSize accepted")
	}
}

// TestNegativeParallelismRejected pins the uniform engine contract: a
// negative worker count is an error for every algorithm, not a silent
// all-CPUs default on some and an error on others.
func TestNegativeParallelismRejected(t *testing.T) {
	for _, alg := range engine.All() {
		if _, err := alg.Mine(context.Background(), datagen.Diag(6), engine.Options{MinCount: 3, Parallelism: -1}); err == nil {
			t.Errorf("%s accepted negative Parallelism", alg.Name())
		}
	}
}

// TestOptionsValidation pins the single options range check on every
// registered algorithm: each out-of-range value is an error from Mine and
// from Plan, never a silent rewrite (a negative MinCount used to
// mine every itemset at support 1, and NaN slipped through everywhere).
func TestOptionsValidation(t *testing.T) {
	d := datagen.Diag(10)
	bad := []struct {
		name string
		opts engine.Options
	}{
		{"negative MinCount", engine.Options{MinCount: -5}},
		{"NaN MinSupport", engine.Options{MinSupport: math.NaN()}},
		{"MinSupport above 1", engine.Options{MinSupport: 1.5}},
		{"negative MinSupport", engine.Options{MinSupport: -0.1}},
		{"negative K", engine.Options{MinCount: 5, K: -1}},
		{"negative InitPoolMaxSize", engine.Options{MinCount: 5, InitPoolMaxSize: -1}},
		{"negative MinSize", engine.Options{MinCount: 5, MinSize: -1}},
		{"negative MaxSize", engine.Options{MinCount: 5, MaxSize: -1}},
		{"negative Parallelism", engine.Options{MinCount: 5, Parallelism: -1}},
		{"negative Tau", engine.Options{MinCount: 5, Tau: -0.5}},
		{"Tau above 1", engine.Options{MinCount: 5, Tau: 1.5}},
		{"NaN Tau", engine.Options{MinCount: 5, Tau: math.NaN()}},
	}
	for _, name := range engine.Names() {
		alg, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range bad {
			if err := tc.opts.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
			if _, err := alg.Mine(context.Background(), d, tc.opts); err == nil {
				t.Errorf("%s: Mine accepted %s", name, tc.name)
			}
			if _, err := alg.Plan(context.Background(), d, tc.opts); err == nil {
				t.Errorf("%s: Plan accepted %s", name, tc.name)
			}
		}
	}
}

func TestGetUnknownAlgorithm(t *testing.T) {
	if _, err := engine.Get("nope"); err == nil {
		t.Fatal("Get of unknown algorithm succeeded")
	}
}

// conformanceOpts are options every algorithm interprets sensibly on a
// Diag workload: a support threshold, result-size budget, size bounds for
// the complete miners, and a fixed seed.
func conformanceOpts() engine.Options {
	return engine.Options{MinCount: 4, K: 20, MinSize: 1, MaxSize: 4, Seed: 7}
}

// TestCancellationConformance cancels the context mid-run for every
// registered algorithm — once pre-canceled, once tripping after a few
// polls — and asserts prompt return with Stopped=true (the engine
// contract: cancellation yields a partial report, not an error).
func TestCancellationConformance(t *testing.T) {
	for _, alg := range engine.All() {
		for _, tc := range []struct {
			name string
			ctx  context.Context
		}{
			{"pre-canceled", preCanceled()},
			{"mid-run", minertest.CancelAfter(2)},
		} {
			t.Run(alg.Name()+"/"+tc.name, func(t *testing.T) {
				// Diag(18) at MinCount 2 explodes for the complete miners if
				// cancellation is ignored; the deadline turns a hang into a
				// failure instead of a stuck test run.
				done := make(chan *engine.Report, 1)
				go func() {
					rep, err := alg.Mine(tc.ctx, datagen.Diag(18), engine.Options{MinCount: 2, K: 1 << 20, MinSize: 1})
					if err != nil {
						t.Errorf("canceled run returned error: %v", err)
					}
					done <- rep
				}()
				select {
				case rep := <-done:
					if rep == nil {
						return // error already reported
					}
					if !rep.Stopped {
						t.Errorf("canceled %s run not reported as Stopped", alg.Name())
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%s did not return promptly after cancellation", alg.Name())
				}
			})
		}
	}
}

func preCanceled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// encodeReport renders a Report to canonical bytes: everything observable
// about the mined patterns (items, support, size) plus the counters.
func encodeReport(t *testing.T, rep *engine.Report) []byte {
	t.Helper()
	type pat struct {
		Items   []int `json:"items"`
		Support int   `json:"support"`
	}
	out := struct {
		Algorithm    string          `json:"algorithm"`
		Patterns     []pat           `json:"patterns"`
		InitPoolSize int             `json:"init_pool_size"`
		Iterations   int             `json:"iterations"`
		Visited      int             `json:"visited"`
		Stopped      bool            `json:"stopped"`
		Warnings     []string        `json:"warnings"`
		Quality      *engine.Quality `json:"quality"`
	}{rep.Algorithm, make([]pat, 0, len(rep.Patterns)), rep.InitPoolSize, rep.Iterations, rep.Visited, rep.Stopped, rep.Warnings, rep.Quality}
	for _, p := range rep.Patterns {
		out.Patterns = append(out.Patterns, pat{Items: append([]int{}, p.Items...), Support: p.Support()})
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterminismConformance runs every registered algorithm twice on
// fresh copies of the same workload and asserts byte-identical reports:
// a Report must be a pure function of (algorithm, dataset, Options).
func TestDeterminismConformance(t *testing.T) {
	for _, alg := range engine.All() {
		t.Run(alg.Name(), func(t *testing.T) {
			run := func() []byte {
				rep, err := alg.Mine(context.Background(), datagen.DiagPlus(12, 6, 11), conformanceOpts())
				if err != nil {
					t.Fatal(err)
				}
				if rep.Stopped {
					t.Fatal("un-canceled conformance run reported Stopped")
				}
				return encodeReport(t, rep)
			}
			a, b := run(), run()
			if string(a) != string(b) {
				t.Fatalf("same seed produced different reports:\n%s\n%s", a, b)
			}
		})
	}
}

// TestParallelismConformance is the registry-wide version of the fusion
// engine's founding guarantee, extended to every miner by the shared
// Tasks scheduler: for each registered algorithm,
// the Report must be byte-identical for Parallelism ∈ {1, 2, 8} — same
// patterns in the same order, same supports, same iteration and
// visited-node counts — on both a diagonal and a randomized workload.
func TestParallelismConformance(t *testing.T) {
	workloads := []struct {
		name string
		d    func() *dataset.Dataset
	}{
		{"DiagPlus", func() *dataset.Dataset { return datagen.DiagPlus(12, 6, 11) }},
		{"Random", func() *dataset.Dataset { return datagen.Random(rng.New(3), 60, 24, 0.4) }},
	}
	for _, alg := range engine.All() {
		for _, w := range workloads {
			t.Run(alg.Name()+"/"+w.name, func(t *testing.T) {
				var want []byte
				for _, par := range []int{1, 2, 8} {
					opts := conformanceOpts()
					opts.Parallelism = par
					rep, err := alg.Mine(context.Background(), w.d(), opts)
					if err != nil {
						t.Fatal(err)
					}
					got := encodeReport(t, rep)
					if want == nil {
						want = got
						continue
					}
					if string(got) != string(want) {
						t.Fatalf("Parallelism=%d diverged from Parallelism=1:\n%s\n%s", par, got, want)
					}
				}
			})
		}
	}
}

// TestOptionsWarnings pins the ignored-option reporting: a field set on an
// algorithm that does not read it yields a deterministic warning, while an
// algorithm that reads it yields none for that field.
func TestOptionsWarnings(t *testing.T) {
	d := datagen.Diag(8)
	mine := func(name string, opts engine.Options) *engine.Report {
		t.Helper()
		alg, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := alg.Mine(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep := mine("eclat", engine.Options{MinCount: 4, K: 9, Seed: 5})
	want := []string{
		`option K is ignored by algorithm "eclat"`,
		`option Seed is ignored by algorithm "eclat"`,
	}
	if !reflect.DeepEqual(rep.Warnings, want) {
		t.Errorf("eclat warnings = %q, want %q", rep.Warnings, want)
	}

	if rep := mine("fusion", engine.Options{MinCount: 4, K: 9, Seed: 5}); len(rep.Warnings) != 0 {
		t.Errorf("fusion warned about options it reads: %q", rep.Warnings)
	}
	if rep := mine("topk", engine.Options{MinCount: 4, K: 9, MinSize: 2}); len(rep.Warnings) != 0 {
		t.Errorf("topk warned about options it reads: %q", rep.Warnings)
	}
	// Universally applicable fields never warn.
	if rep := mine("closed", engine.Options{MinCount: 4, Parallelism: 2}); len(rep.Warnings) != 0 {
		t.Errorf("closed warned about universal options: %q", rep.Warnings)
	}
}

// TestObserverEvents asserts the minimum observable contract: every
// algorithm brackets its run with start and done events from a single
// goroutine, and fusion reports its phases in order.
func TestObserverEvents(t *testing.T) {
	for _, alg := range engine.All() {
		t.Run(alg.Name(), func(t *testing.T) {
			var events []engine.Event
			opts := conformanceOpts()
			opts.Observer = func(e engine.Event) { events = append(events, e) }
			if _, err := alg.Mine(context.Background(), datagen.DiagPlus(12, 6, 11), opts); err != nil {
				t.Fatal(err)
			}
			if len(events) < 2 {
				t.Fatalf("want at least start+done events, got %v", events)
			}
			if events[0].Phase != engine.PhaseStart {
				t.Errorf("first event %v, want phase %q", events[0], engine.PhaseStart)
			}
			last := events[len(events)-1]
			if last.Phase != engine.PhaseDone {
				t.Errorf("last event %v, want phase %q", last, engine.PhaseDone)
			}
			for _, e := range events {
				if e.Algorithm != alg.Name() {
					t.Errorf("event %v attributed to %q, want %q", e, e.Algorithm, alg.Name())
				}
			}
		})
	}
}

// TestReportPatternsSorted pins the uniform presentation order: largest
// patterns first, as documented on Report.Patterns.
func TestReportPatternsSorted(t *testing.T) {
	for _, alg := range engine.All() {
		t.Run(alg.Name(), func(t *testing.T) {
			rep, err := alg.Mine(context.Background(), datagen.DiagPlus(12, 6, 11), conformanceOpts())
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(rep.Patterns); i++ {
				if len(rep.Patterns[i].Items) > len(rep.Patterns[i-1].Items) {
					t.Fatalf("patterns not sorted by decreasing size at %d", i)
				}
			}
		})
	}
}

// TestResolveMinCount pins the shared threshold resolution.
func TestResolveMinCount(t *testing.T) {
	d := datagen.Diag(10) // 10 transactions
	cases := []struct {
		opts engine.Options
		want int
	}{
		{engine.Options{MinCount: 7}, 7},
		{engine.Options{MinSupport: 0.5}, d.MinCount(0.5)},
		{engine.Options{}, 1},
	}
	for i, c := range cases {
		if got := c.opts.ResolveMinCount(d); got != c.want {
			t.Errorf("case %d: ResolveMinCount = %d, want %d", i, got, c.want)
		}
	}
	var _ *dataset.Dataset = d // keep the import honest if cases change
}

// TestEventJSONOmitsPool pins that the live pool slice never leaks into
// serialized progress events (the job server streams Event as JSON).
func TestEventJSONOmitsPool(t *testing.T) {
	e := engine.Event{Algorithm: "fusion", Phase: engine.PhaseIteration, Iteration: 1, PoolSize: 2,
		Pool: []*dataset.Pattern{{}}}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"algorithm": true, "phase": true, "iteration": true, "pool_size": true}
	for k := range m {
		if !want[k] {
			t.Errorf("unexpected field %q in Event JSON: %s", k, b)
		}
	}
}

func TestNamesSortedAndStable(t *testing.T) {
	a, b := engine.Names(), engine.Names()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Names unstable: %v vs %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("Names not sorted: %v", a)
		}
	}
	// Registered under the documented names.
	want := fmt.Sprint([]string{"apriori", "closed", "closedrows", "eclat", "fpgrowth", "fusion", "maximal", "seqfusion", "topk"})
	if got := fmt.Sprint(a); got != want {
		t.Fatalf("Names = %s, want %s", got, want)
	}
}
