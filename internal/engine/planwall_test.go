package engine_test

import (
	"context"
	"testing"

	"repro/internal/engine"
)

// shardPlanWall pins the task-unit count of every miner on every
// hashWallWorkloads entry at Parallelism 2, keyed like hashWall. A
// coordinator and its workers must agree on this count, so a refactor of
// the miners' split functions must leave every entry unchanged. fusion
// and apriori are one unit everywhere: their runs are globally coupled.
var shardPlanWall = map[string]int{
	"apriori/empty":         1,
	"apriori/onerow":        1,
	"apriori/chain":         1,
	"apriori/aboverows":     1,
	"apriori/diagplus/4":    1,
	"apriori/diagplus/7":    1,
	"apriori/diag/5":        1,
	"apriori/random/4":      1,
	"apriori/random/9":      1,
	"closed/empty":          0,
	"closed/onerow":         6,
	"closed/chain":          8,
	"closed/aboverows":      0,
	"closed/diagplus/4":     23,
	"closed/diagplus/7":     23,
	"closed/diag/5":         10,
	"closed/random/4":       24,
	"closed/random/9":       24,
	"closedrows/empty":      0,
	"closedrows/onerow":     0,
	"closedrows/chain":      0,
	"closedrows/aboverows":  0,
	"closedrows/diagplus/4": 66,
	"closedrows/diagplus/7": 66,
	"closedrows/diag/5":     21,
	"closedrows/random/4":   1608,
	"closedrows/random/9":   1346,
	"eclat/empty":           0,
	"eclat/onerow":          4,
	"eclat/chain":           7,
	"eclat/aboverows":       0,
	"eclat/diagplus/4":      23,
	"eclat/diagplus/7":      12,
	"eclat/diag/5":          10,
	"eclat/random/4":        24,
	"eclat/random/9":        24,
	"fpgrowth/empty":        0,
	"fpgrowth/onerow":       1,
	"fpgrowth/chain":        1,
	"fpgrowth/aboverows":    0,
	"fpgrowth/diagplus/4":   23,
	"fpgrowth/diagplus/7":   12,
	"fpgrowth/diag/5":       10,
	"fpgrowth/random/4":     24,
	"fpgrowth/random/9":     24,
	"fusion/empty":          1,
	"fusion/onerow":         1,
	"fusion/chain":          1,
	"fusion/aboverows":      1,
	"fusion/diagplus/4":     1,
	"fusion/diagplus/7":     1,
	"fusion/diag/5":         1,
	"fusion/random/4":       1,
	"fusion/random/9":       1,
	"maximal/empty":         0,
	"maximal/onerow":        0,
	"maximal/chain":         0,
	"maximal/aboverows":     0,
	"maximal/diagplus/4":    23,
	"maximal/diagplus/7":    12,
	"maximal/diag/5":        10,
	"maximal/random/4":      24,
	"maximal/random/9":      24,
	"seqfusion/empty":       20,
	"seqfusion/onerow":      20,
	"seqfusion/chain":       20,
	"seqfusion/aboverows":   20,
	"seqfusion/diagplus/4":  20,
	"seqfusion/diagplus/7":  20,
	"seqfusion/diag/5":      20,
	"seqfusion/random/4":    20,
	"seqfusion/random/9":    20,
	"topk/empty":            0,
	"topk/onerow":           0,
	"topk/chain":            6,
	"topk/aboverows":        0,
	"topk/diagplus/4":       23,
	"topk/diagplus/7":       12,
	"topk/diag/5":           10,
	"topk/random/4":         24,
	"topk/random/9":         24,
}

// TestShardPlanWall pins each miner's decomposition on the hash wall
// workloads: the unit count above, and that the coordinator's range loop
// (engine.Lease, with every shard mined by a worker-side MineShard)
// reproduces the miner's hashWall entry for 1, 2 and 3 shards — the
// root's own answer, leasing nothing, for a plan of no units.
func TestShardPlanWall(t *testing.T) {
	ctx := context.Background()
	for _, name := range shardedMiners {
		alg, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range hashWallWorkloads {
			key := name + "/" + w.name
			opts := conformanceOpts()
			opts.MinCount = w.minCount
			opts.Parallelism = 2
			plan, err := alg.Plan(ctx, w.d(), opts)
			if err != nil {
				t.Fatal(err)
			}
			units := plan.Units
			want, ok := shardPlanWall[key]
			if !ok {
				t.Errorf("%s: no pinned unit count (got %d)", key, units)
				continue
			}
			if units != want {
				t.Errorf("%s: %d task units, want %d", key, units, want)
			}
			for n := 1; n <= 3; n++ {
				merged := leaseLocally(t, alg, w.d(), opts, n, units)
				if got := engine.ReportHash(merged); got != hashWall[key] {
					t.Errorf("%s: %d-way lease merged to %s, want %s", key, n, got, hashWall[key])
				}
			}
		}
	}
	if len(shardPlanWall) != len(shardedMiners)*len(hashWallWorkloads) {
		t.Errorf("plan wall pins %d entries, want %d", len(shardPlanWall), len(shardedMiners)*len(hashWallWorkloads))
	}
}
