package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
)

// AblationRow is one configuration point of an ablation sweep on the
// Replace workload: which design-choice value was used, how long the run
// took, and how many of the three planted colossal patterns were found.
type AblationRow struct {
	Name     string        // human-readable parameter setting
	Time     time.Duration // wall-clock of the full Pattern-Fusion run
	Recall   float64       // colossal patterns found / 3
	Patterns int           // result size
}

// AblationConfig parameterizes the sweeps.
type AblationConfig struct {
	K    int
	Seed uint64
	// Parallelism fans the ablation cells out to this many workers and is
	// handed to the fusion runs' Parallelism (<= 1 = fully sequential). Every
	// cell is seeded independently, so results are identical for any
	// value.
	Parallelism int
}

// DefaultAblationConfig matches the Figure 8 setup (K = 100, σ = 0.03).
func DefaultAblationConfig() AblationConfig { return AblationConfig{K: 100, Seed: 1} }

// Ablations runs all design-choice sweeps of DESIGN.md §4 on the Replace
// workload and returns the rows grouped per sweep.
func Ablations(cfg AblationConfig) (map[string][]AblationRow, error) {
	d, paths := datagen.Replace(cfg.Seed)

	// runOne runs fusion with the registered algorithm's defaults, as
	// modified by mutate: engine options for τ and the initial pool, the
	// fusion-only knobs for everything else.
	runOne := func(name string, mutate func(*engine.Options, *core.Knobs)) (AblationRow, error) {
		opts := engine.Options{K: cfg.K, MinSupport: 0.03, Seed: cfg.Seed, Parallelism: corePar(cfg.Parallelism)}
		kn := core.DefaultKnobs(cfg.K)
		mutate(&opts, &kn)
		t0 := time.Now()
		res, err := core.WithKnobs(kn).Mine(context.Background(), d, opts)
		if err != nil {
			return AblationRow{}, err
		}
		row := AblationRow{Name: name, Time: time.Since(t0), Patterns: len(res.Patterns)}
		hits := 0
		for _, path := range paths {
			for _, p := range res.Patterns {
				if p.Items.Equal(path) {
					hits++
					break
				}
			}
		}
		row.Recall = float64(hits) / float64(len(paths))
		return row, nil
	}

	type sweep struct {
		group, name string
		mutate      func(*engine.Options, *core.Knobs)
	}
	sweeps := []sweep{
		{"tau", "τ=0.5", func(o *engine.Options, _ *core.Knobs) { o.Tau = 0.5 }},
		{"tau", "τ=0.7", func(o *engine.Options, _ *core.Knobs) { o.Tau = 0.7 }},
		{"tau", "τ=0.9", func(o *engine.Options, _ *core.Knobs) { o.Tau = 0.9 }},
		{"initpool", "size≤1", func(o *engine.Options, _ *core.Knobs) { o.InitPoolMaxSize = 1 }},
		{"initpool", "size≤2", func(o *engine.Options, _ *core.Knobs) { o.InitPoolMaxSize = 2 }},
		{"initpool", "size≤3", func(o *engine.Options, _ *core.Knobs) { o.InitPoolMaxSize = 3 }},
		{"draws", "draws=2", func(_ *engine.Options, k *core.Knobs) { k.FusionDraws = 2 }},
		{"draws", "draws=10", func(_ *engine.Options, k *core.Knobs) { k.FusionDraws = 10 }},
		{"draws", "draws=20", func(_ *engine.Options, k *core.Knobs) { k.FusionDraws = 20 }},
		{"ball", "ball=256", func(_ *engine.Options, k *core.Knobs) { k.MaxBallSize = 256 }},
		{"ball", "ball=2048", func(_ *engine.Options, k *core.Knobs) { k.MaxBallSize = 2048 }},
		{"ball", "ball=8192", func(_ *engine.Options, k *core.Knobs) { k.MaxBallSize = 8192 }},
		{"elitism", "elitism=0", func(_ *engine.Options, k *core.Knobs) { k.Elitism = 0 }},
		{"elitism", "elitism=26", func(_ *engine.Options, k *core.Knobs) { k.Elitism = 26 }},
		{"closure", "closure=off", func(_ *engine.Options, k *core.Knobs) { k.CloseFused = false }},
		{"closure", "closure=on", func(_ *engine.Options, k *core.Knobs) { k.CloseFused = true }},
	}
	// Every sweep cell is an independent Pattern-Fusion run; fan them out,
	// then fold the rows into their groups in declaration order.
	rows := make([]AblationRow, len(sweeps))
	err := forEachCell(cfg.Parallelism, len(sweeps), func(i int) error {
		row, err := runOne(sweeps[i].name, sweeps[i].mutate)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]AblationRow)
	for i, s := range sweeps {
		out[s.group] = append(out[s.group], rows[i])
	}
	return out, nil
}
