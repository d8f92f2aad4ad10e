package experiments

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
)

// AblationConfig parameterizes the sweeps.
type AblationConfig struct {
	Config
	K int
}

// DefaultAblationConfig matches the Figure 8 setup (K = 100, σ = 0.03).
func DefaultAblationConfig(c Config) AblationConfig { return AblationConfig{Config: c, K: 100} }

// Ablations runs the sweeps of Pattern-Fusion's design choices on the
// Replace workload, one cell and row per setting, grouped by sweep in
// name order: how long the run took, and the recall of the three planted
// colossal patterns.
func Ablations(cfg AblationConfig) (*Table, error) {
	d, paths := datagen.Replace(cfg.Seed)
	// Each setting modifies the registered fusion defaults: engine options
	// for τ and the initial pool, the fusion-only knobs for everything
	// else.
	settings := []struct {
		sweep, name string
		mutate      func(*engine.Options, *core.Knobs)
	}{
		{"ball", "ball=256", func(_ *engine.Options, k *core.Knobs) { k.MaxBallSize = 256 }},
		{"ball", "ball=2048", func(_ *engine.Options, k *core.Knobs) { k.MaxBallSize = 2048 }},
		{"ball", "ball=8192", func(_ *engine.Options, k *core.Knobs) { k.MaxBallSize = 8192 }},
		{"closure", "closure=off", func(_ *engine.Options, k *core.Knobs) { k.CloseFused = false }},
		{"closure", "closure=on", func(_ *engine.Options, k *core.Knobs) { k.CloseFused = true }},
		{"draws", "draws=2", func(_ *engine.Options, k *core.Knobs) { k.FusionDraws = 2 }},
		{"draws", "draws=10", func(_ *engine.Options, k *core.Knobs) { k.FusionDraws = 10 }},
		{"draws", "draws=20", func(_ *engine.Options, k *core.Knobs) { k.FusionDraws = 20 }},
		{"elitism", "elitism=0", func(_ *engine.Options, k *core.Knobs) { k.Elitism = 0 }},
		{"elitism", "elitism=26", func(_ *engine.Options, k *core.Knobs) { k.Elitism = 26 }},
		{"initpool", "size≤1", func(o *engine.Options, _ *core.Knobs) { o.InitPoolMaxSize = 1 }},
		{"initpool", "size≤2", func(o *engine.Options, _ *core.Knobs) { o.InitPoolMaxSize = 2 }},
		{"initpool", "size≤3", func(o *engine.Options, _ *core.Knobs) { o.InitPoolMaxSize = 3 }},
		{"tau", "τ=0.5", func(o *engine.Options, _ *core.Knobs) { o.Tau = 0.5 }},
		{"tau", "τ=0.7", func(o *engine.Options, _ *core.Knobs) { o.Tau = 0.7 }},
		{"tau", "τ=0.9", func(o *engine.Options, _ *core.Knobs) { o.Tau = 0.9 }},
	}
	t := &Table{Columns: []string{"sweep", "setting", "recall", "seconds", "patterns"}, Rows: make([][]any, len(settings))}
	err := cells(cfg.Parallelism, len(settings), func(i int) error {
		s := settings[i]
		opts := engine.Options{K: cfg.K, MinSupport: 0.03, Seed: cfg.Seed, Parallelism: cfg.fusionPar()}
		kn := core.DefaultKnobs(cfg.K)
		s.mutate(&opts, &kn)
		res, took, err := mine(0, core.WithKnobs(kn), d, opts)
		if err != nil {
			return err
		}
		t.Rows[i] = []any{s.sweep, s.name, float64(found(res.Patterns, paths)) / float64(len(paths)), took, len(res.Patterns)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
