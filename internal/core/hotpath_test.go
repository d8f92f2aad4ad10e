package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/apriori"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/rng"
	"repro/internal/tidset"
)

// initialPool is fusion's phase-1 pool of d: the frequent patterns of at
// most maxSize items.
func initialPool(d *dataset.Dataset, minCount, maxSize int) []*dataset.Pattern {
	pool, _ := apriori.InitialPool(context.Background(), d, minCount, maxSize, 1)
	return pool
}

// TestBallPruningMatchesNaiveDistance is the differential test for the
// count-algebra ball search: for randomized pools and every τ, the ball
// fuseScratch.ballOf returns — ballThreshold + AndCountAtLeast, sparse
// seeds probed through their dense copy — must equal the naive
// Distance(seed, p) ≤ r(τ) scan, bit for bit (the threshold is derived from
// the exact float64 predicate, so there is no tolerance here). The small
// dense trials are joined by sparse ones of at least 320 rows, so that
// sparse∧sparse and sparse∧dense pairs reach the kernels, and one scratch
// serves every seed of a trial, so a dense copy left by a seed of another
// support must not leak into the next seed's ball. The last trials build
// pools in which most patterns share a support set with another, so the
// per-class verdicts — the seed's own class included — carry most of each
// ball.
func TestBallPruningMatchesNaiveDistance(t *testing.T) {
	r := rng.New(31)
	var sparseSparse, sparseDense int
	check := func(trial int, d *dataset.Dataset, pool []*dataset.Pattern) int {
		t.Helper()
		sc := newFuseScratch(d)
		var classes supportClasses
		classes.group(pool)
		for _, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
			radius := Radius(tau)
			for _, seed := range pool {
				var naive []*dataset.Pattern
				for _, p := range pool {
					if p == seed {
						continue
					}
					if seed.Distance(p) <= radius {
						naive = append(naive, p)
					}
					if ballThreshold(seed.Support(), p.Support(), radius) < 0 {
						continue
					}
					switch {
					case !seed.TIDs.IsDense() && !p.TIDs.IsDense():
						sparseSparse++
					case seed.TIDs.IsDense() != p.TIDs.IsDense():
						sparseDense++
					}
				}
				ball := sc.ballOf(seed, pool, &classes, radius)
				if len(ball) != len(naive) {
					t.Fatalf("trial %d τ=%v seed %v (support %d): ball of %d, naive %d",
						trial, tau, seed.Items, seed.Support(), len(ball), len(naive))
				}
				for i := range ball {
					if ball[i] != naive[i] {
						t.Fatalf("trial %d τ=%v seed %v: member %d is %v, naive %v (dist %v, r %v)",
							trial, tau, seed.Items, i, ball[i].Items, naive[i].Items, seed.Distance(naive[i]), radius)
					}
				}
			}
		}
		return len(classes.reps)
	}
	for trial := 0; trial < 20; trial++ {
		nTxn := 10 + r.Intn(60)
		nItems := 4 + r.Intn(12)
		txns := make([][]int, nTxn)
		for i := range txns {
			l := 1 + r.Intn(nItems)
			row := make([]int, 0, l)
			for j := 0; j < l; j++ {
				row = append(row, r.Intn(nItems))
			}
			txns[i] = row
		}
		d := dataset.MustNew(txns)
		pool := initialPool(d, 1+r.Intn(3), 2)
		if len(pool) < 2 {
			continue
		}
		check(trial, d, pool)
	}
	// Sparse trials: each item occurs in 0.5–12% of the rows, so columns
	// fall on both sides of SparseThreshold (n/32) and item pairs are sparse.
	for trial := 20; trial < 26; trial++ {
		nTxn := 320 + r.Intn(320)
		nItems := 12 + r.Intn(12)
		freq := make([]float64, nItems)
		for it := range freq {
			freq[it] = 0.005 + 0.115*r.Float64()
		}
		txns := make([][]int, nTxn)
		for i := range txns {
			for it, f := range freq {
				if r.Float64() < f {
					txns[i] = append(txns[i], it)
				}
			}
		}
		d := dataset.MustNew(txns)
		check(trial, d, initialPool(d, 1+r.Intn(2), 2))
	}
	// Duplicated trials: each item is one of 2–4 copies of a random column,
	// so every itemset within one copy group shares its support set, and
	// the pool holds many patterns per class, including classes that share
	// a support count but not a support set.
	for trial := 26; trial < 32; trial++ {
		nTxn := 40 + r.Intn(40)
		nGroups := 4 + r.Intn(3)
		var cols [][]int // cols[item]: the rows holding item
		for g := 0; g < nGroups; g++ {
			var rows []int
			for row := 0; row < nTxn; row++ {
				if r.Intn(2) == 0 {
					rows = append(rows, row)
				}
			}
			for c := 2 + r.Intn(3); c > 0; c-- {
				cols = append(cols, rows)
			}
		}
		txns := make([][]int, nTxn)
		for it, rows := range cols {
			for _, row := range rows {
				txns[row] = append(txns[row], it)
			}
		}
		d := dataset.MustNew(txns)
		pool := initialPool(d, 1, 3)
		if classes := check(trial, d, pool); 2*classes > len(pool) {
			t.Fatalf("trial %d: %d support classes in a pool of %d, want at most half", trial, classes, len(pool))
		}
	}
	if sparseSparse == 0 || sparseDense == 0 {
		t.Fatalf("kernel coverage: %d sparse∧sparse and %d sparse∧dense pairs tested, want both > 0", sparseSparse, sparseDense)
	}
}

// TestSupportClassesMatchEqual is the differential test for the pool
// grouping behind ballOf: on random pools drawn from a small palette of
// support sets, each member written dense or sparse at random, two
// patterns share a class exactly when their TID-sets are Equal, every
// representative is the first pattern of its class, and classes are
// numbered by first appearance in pool order. One grouping serves every
// trial, as one serves every step of a mine, so nothing may carry over
// from an earlier pool.
func TestSupportClassesMatchEqual(t *testing.T) {
	r := rng.New(5)
	var g supportClasses
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		palette := make([]*tidset.Set, 1+r.Intn(12))
		for k := range palette {
			var members []int
			for i := 0; i < n; i++ {
				if r.Intn(1+k%4) == 0 {
					members = append(members, i)
				}
			}
			palette[k] = tidset.FromIndices(n, members)
		}
		pool := make([]*dataset.Pattern, r.Intn(80))
		for i := range pool {
			tids := palette[r.Intn(len(palette))]
			if r.Intn(2) == 0 {
				dense := tidset.New(n)
				dense.DenseCopyFrom(tids)
				tids = dense
			} else {
				tids = tids.CompactClone()
			}
			pool[i] = dataset.NewPatternTIDs(itemset.Itemset{i}, tids)
		}
		g.group(pool)
		if len(g.of) != len(pool) {
			t.Fatalf("trial %d: %d class ids for a pool of %d", trial, len(g.of), len(pool))
		}
		next := int32(0)
		for i, p := range pool {
			c := g.of[i]
			if c > next || int(c) >= len(g.reps) {
				t.Fatalf("trial %d: pattern %d has class %d, next new class is %d of %d", trial, i, c, next, len(g.reps))
			}
			if c == next {
				if g.reps[c] != int32(i) {
					t.Fatalf("trial %d: class %d's representative is not its first pattern %d", trial, c, i)
				}
				next++
			}
			for j := 0; j < i; j++ {
				if same, equal := g.of[j] == c, pool[j].TIDs.Equal(p.TIDs); same != equal {
					t.Fatalf("trial %d: patterns %d and %d share a class %v, Equal %v", trial, j, i, same, equal)
				}
			}
		}
		if int(next) != len(g.reps) {
			t.Fatalf("trial %d: %d representatives, %d classes used", trial, len(g.reps), next)
		}
	}
}

// TestBallThresholdEdgeCases pins the empty-support conventions: two empty
// supports are at distance 0 (in every ball), one empty support is at
// distance 1 (in no ball, since r(τ) < 1).
func TestBallThresholdEdgeCases(t *testing.T) {
	radius := Radius(0.5)
	if th := ballThreshold(0, 0, radius); th != 0 {
		t.Fatalf("both empty: threshold %d, want 0", th)
	}
	if th := ballThreshold(0, 5, radius); th != -1 {
		t.Fatalf("one empty: threshold %d, want -1", th)
	}
	if th := ballThreshold(5, 0, radius); th != -1 {
		t.Fatalf("one empty (sym): threshold %d, want -1", th)
	}
	// τ=1 ⇒ r=0 ⇒ only identical support sets qualify: i* = sa = sb.
	if th := ballThreshold(7, 7, Radius(1)); th != 7 {
		t.Fatalf("r=0 equal supports: threshold %d, want 7", th)
	}
	if th := ballThreshold(7, 8, Radius(1)); th != -1 {
		t.Fatalf("r=0 unequal supports: threshold %d, want -1", th)
	}
}

// resultHash condenses a report into a sha256 over every pattern's
// itemset and support, in order.
func resultHash(res *engine.Report) string {
	h := sha256.New()
	for _, p := range res.Patterns {
		fmt.Fprintf(h, "%s|%d;", p.Items.Key(), p.Support())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestResultGoldenBitIdentical pins Report.Patterns to hashes recorded from
// the pre-optimization implementation (PR 1, commit 89968c8): the cached
// supports, pruned ball search, fingerprint dedup and scratch-buffer fusion
// must reproduce the exact same patterns, supports, ordering and iteration
// counts for fixed seeds. If an intentional algorithm change ever breaks
// these, re-record the hashes and say so loudly in the commit message.
func TestResultGoldenBitIdentical(t *testing.T) {
	type golden struct {
		seed  uint64
		iters int
		n     int
		hash  string
	}
	diag := datagen.Diag(30)
	diagOpts := engine.Options{K: 20, MinCount: 15, InitPoolMaxSize: 2}

	check := func(t *testing.T, d *dataset.Dataset, opts engine.Options, g golden) {
		t.Helper()
		opts.Seed = g.seed
		res := mine(t, context.Background(), d, opts)
		if res.Iterations != g.iters || len(res.Patterns) != g.n {
			t.Fatalf("seed %d: %d iterations / %d patterns, want %d / %d",
				g.seed, res.Iterations, len(res.Patterns), g.iters, g.n)
		}
		if got := resultHash(res); got != g.hash {
			t.Fatalf("seed %d: result hash %s, want %s", g.seed, got, g.hash)
		}
	}

	t.Run("Diag30", func(t *testing.T) {
		for _, g := range []golden{
			{1, 7, 20, "b6f774123832f22d20319b1585428e1f7a81e9f594115087421a0d6a14e32c44"},
			{7, 5, 20, "b576cc59b51776c7ae763cddc4ef07273df3d558539d884d90fddffce10b508c"},
			{42, 5, 20, "c29944f103f8f83209eefd515ac7c81423476d17afe98532ab46d1d023687ea4"},
		} {
			check(t, diag, diagOpts, g)
		}
	})

	t.Run("Replace", func(t *testing.T) {
		if testing.Short() {
			t.Skip("heavyweight workload")
		}
		d, _ := datagen.Replace(1)
		opts := engine.Options{K: 50, MinSupport: 0.03}
		for _, g := range []golden{
			{1, 12, 50, "83f8767297d5d046ff2a7f30db9823978c0a705da51deeddb969e3bb9bcd9233"},
			{7, 8, 50, "f92f3993fa9452bb3f4ef2ff90b9193abceb3ad69d3ef2d68bc5059ec3b5bde4"},
		} {
			check(t, d, opts, g)
		}
	})

	t.Run("Microarray", func(t *testing.T) {
		if testing.Short() {
			t.Skip("heavyweight workload")
		}
		d, _ := datagen.Microarray(1)
		check(t, d, engine.Options{K: 100, MinCount: 25, InitPoolMaxSize: 2}, golden{1, 7, 100, "7c927868695c1c9d6345791e3fe9bd58b910a991322b7f9b3310352ebef175b0"})
	})

	// Quest is the sparse market-basket shape: most of its initial pool
	// holds sparse TID-sets (apriori's TestInitialPoolQuestGolden pins the
	// share), so the ball search runs the sparse kernels the dense
	// fixtures above never reach.
	t.Run("Quest", func(t *testing.T) {
		d := datagen.Quest(rng.New(1), datagen.QuestConfig{Txns: 5000, Items: 200})
		opts := engine.Options{K: 100, MinSupport: 0.01}
		for _, g := range []golden{
			{1, 6, 100, "58c933f23c02f5094894ccc1efb5dc5432c50c73f13e774f3deeb3e4a29f7535"},
			{7, 9, 100, "f553b415a0534b4be2c36e9ef539380a50525745df3946cb071652f6c5681d73"},
		} {
			check(t, d, opts, g)
		}
	})
}

// TestClosureMemoMatchesClosure is the differential test for fuse's
// closure memo: over random dense and sparse datasets, closedOf on the
// support set of a random itemset — queried again and again, dense or
// sparse, through one scratch as one step's draws do — must return
// Dataset.Closure's itemset with that itemset's fingerprint and support,
// over a TID-set Equal to the query, and a repeated query must be answered
// by the memo, not by a second closure. Two unequal sets forced into one
// hash chain must each get their own closure, so a lookup that trusts the
// hash alone fails here.
func TestClosureMemoMatchesClosure(t *testing.T) {
	r := rng.New(43)
	var queries, hits int
	check := func(trial int, d *dataset.Dataset) {
		t.Helper()
		sc := newFuseScratch(d)
		seen := make(map[string]*dataset.Pattern) // closed pattern by support set
		for q := 0; q < 200; q++ {
			raw := make([]int, 1+r.Intn(3))
			for i := range raw {
				raw[i] = r.Intn(d.NumItems())
			}
			alpha := itemset.Canonical(raw)
			tids := d.TIDSet(alpha)
			if tids.Empty() {
				continue
			}
			if r.Intn(2) == 0 {
				dense := tidset.New(d.Size())
				dense.DenseCopyFrom(tids)
				tids = dense
			}
			c := sc.closedOf(tids)
			queries++
			want := d.Closure(alpha)
			if !c.p.Items.Equal(want) || c.fp != want.Fingerprint() {
				t.Fatalf("trial %d: closure of %v's support set is %v, want %v", trial, alpha, c.p.Items, want)
			}
			if !c.p.TIDs.Equal(tids) || c.p.Support() != tids.Count() {
				t.Fatalf("trial %d: closure of %v carries %d TIDs (support %d), not the query's %d",
					trial, alpha, c.p.TIDs.Count(), c.p.Support(), tids.Count())
			}
			key := fmt.Sprint(tids.Indices())
			if prev, ok := seen[key]; ok {
				if c.p != prev {
					t.Fatalf("trial %d: a repeated query for %v's support set was closed again", trial, alpha)
				}
				hits++
			}
			seen[key] = c.p
		}
		if len(sc.closed) != len(seen) {
			t.Fatalf("trial %d: memo holds %d entries for %d distinct support sets", trial, len(sc.closed), len(seen))
		}

		// Force a collision: b's chain starts at a's entry, which the
		// lookup must pass over.
		sc = newFuseScratch(d)
		var a, b *tidset.Set
		var wantA, wantB itemset.Itemset
		for it := 0; it < d.NumItems() && b == nil; it++ {
			alpha := itemset.Itemset{it}
			tids := d.TIDSet(alpha)
			switch {
			case tids.Empty():
			case a == nil:
				a, wantA = tids, d.Closure(alpha)
			case !tids.Equal(a):
				b, wantB = tids, d.Closure(alpha)
			}
		}
		if b == nil {
			return
		}
		ca := sc.closedOf(a)
		sc.closedIdx.head[b.Hash()] = sc.closedIdx.head[a.Hash()]
		cb := sc.closedOf(b)
		if !cb.p.Items.Equal(wantB) || !cb.p.TIDs.Equal(b) {
			t.Fatalf("trial %d: colliding set closed to %v, want %v", trial, cb.p.Items, wantB)
		}
		// Now a's chain starts at b's entry, whose chain goes on to a's.
		sc.closedIdx.head[a.Hash()] = sc.closedIdx.head[b.Hash()]
		if got := sc.closedOf(a); got.p != ca.p || !got.p.Items.Equal(wantA) {
			t.Fatalf("trial %d: first set of a chain closed to %v, want its memoised %v", trial, got.p.Items, wantA)
		}
		if got := sc.closedOf(b); got.p != cb.p {
			t.Fatalf("trial %d: second set of a chain was closed again", trial)
		}
		if len(sc.closed) != 2 {
			t.Fatalf("trial %d: memo holds %d entries for 2 support sets", trial, len(sc.closed))
		}
	}
	for trial := 0; trial < 20; trial++ {
		nTxn := 10 + r.Intn(60)
		nItems := 4 + r.Intn(12)
		txns := make([][]int, nTxn)
		for i := range txns {
			for j := 1 + r.Intn(nItems); j > 0; j-- {
				txns[i] = append(txns[i], r.Intn(nItems))
			}
		}
		check(trial, dataset.MustNew(txns))
	}
	// Sparse trials: items occur in 0.5–12% of 320–640 rows, so most
	// support sets are sparse and the dense copies of the queries are not.
	for trial := 20; trial < 26; trial++ {
		nTxn := 320 + r.Intn(320)
		freq := make([]float64, 12+r.Intn(12))
		for it := range freq {
			freq[it] = 0.005 + 0.115*r.Float64()
		}
		txns := make([][]int, nTxn)
		for i := range txns {
			for it, f := range freq {
				if r.Float64() < f {
					txns[i] = append(txns[i], it)
				}
			}
		}
		check(trial, dataset.MustNew(txns))
	}
	if hits == 0 || hits == queries {
		t.Fatalf("%d of %d queries repeated an earlier support set, want some but not all", hits, queries)
	}
}

// TestEliteMatchesSort is the differential test for elitism's bounded
// selection: on random pools of distinct itemsets whose sizes and
// supports tie often, elite(pool, n) must be the first n patterns of a
// sorted copy of the pool, pattern for pattern, for every n.
func TestEliteMatchesSort(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		var pool []*dataset.Pattern
		seen := make(map[string]bool)
		for i := 1 + r.Intn(60); i > 0; i-- {
			raw := make([]int, 1+r.Intn(3))
			for j := range raw {
				raw[j] = r.Intn(8)
			}
			items := itemset.Canonical(raw)
			if seen[items.Key()] {
				continue
			}
			seen[items.Key()] = true
			pool = append(pool, dataset.NewPatternCounted(items, nil, 1+r.Intn(3)))
		}
		sorted := append([]*dataset.Pattern(nil), pool...)
		dataset.SortPatterns(sorted)
		for n := 1; n <= len(pool)+1; n++ {
			got := elite(pool, n)
			want := sorted[:min(n, len(sorted))]
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d: %d elite, want %d", trial, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d: elite %d is %v, want %v", trial, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFuseScratchIsolation runs the same seed's fusion twice through one
// scratch and interleaved with other seeds, proving draws never leak state
// between calls through the reused buffers. The other seeds warm the
// scratch's closure memo first, so the reused run answers some closures
// from entries other seeds made, and its output must still equal a fresh
// scratch's.
func TestFuseScratchIsolation(t *testing.T) {
	d := datagen.Diag(20)
	pool := initialPool(d, 10, 2)
	for _, p := range pool {
		p.EnsureSupport()
	}
	p := resolve(d, engine.Options{K: 10, MinCount: 10}, nil)
	radius := Radius(p.tau)
	var classes supportClasses
	classes.group(pool)

	runSeed := func(sc *fuseScratch, seedPat *dataset.Pattern) []string {
		r := rng.New(99)
		ball := sc.ballOf(seedPat, pool, &classes, radius)
		out := fuse(d, seedPat, ball, &p, r, sc)
		keys := make([]string, len(out))
		for i, pat := range out {
			keys[i] = fmt.Sprintf("%v|%d", pat.Items, pat.Support())
		}
		return keys
	}

	freshScratch := newFuseScratch(d)
	fresh := runSeed(freshScratch, pool[0])
	shared := newFuseScratch(d)
	for _, other := range pool[1:] {
		runSeed(shared, other) // dirty the buffers and warm the memo with other seeds
	}
	warm := len(shared.closed)
	reused := runSeed(shared, pool[0])
	if added := len(shared.closed) - warm; added >= len(freshScratch.closed) {
		t.Fatalf("the warmed memo answered none of the seed's closures: %d new entries, %d on a fresh scratch", added, len(freshScratch.closed))
	}
	if len(fresh) != len(reused) {
		t.Fatalf("scratch reuse changed super count: %d vs %d", len(fresh), len(reused))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("scratch reuse diverged at %d: %s vs %s", i, fresh[i], reused[i])
		}
	}
}

// TestUnionStampMatchesSubsetOf is the differential test for fuse's
// item-stamp containment: over random draws — a seed and fused members
// stamped into the union, the sorted union built by unionInto alongside —
// inUnion must agree with Itemset.SubsetOf against that union for random
// probe members. The first draw starts at generation math.MaxUint32 over
// a stamp array full of stale marks, so the wrap branch that clears it
// runs and must not let a stale stamp read as membership.
func TestUnionStampMatchesSubsetOf(t *testing.T) {
	r := rng.New(17)
	const nItems = 60
	txns := [][]int{make([]int, nItems)}
	for i := range txns[0] {
		txns[0][i] = i
	}
	sc := newFuseScratch(dataset.MustNew(txns))
	randItems := func(maxLen int) itemset.Itemset {
		raw := make([]int, r.Intn(maxLen+1))
		for i := range raw {
			raw[i] = r.Intn(nItems)
		}
		return itemset.Canonical(raw)
	}
	for i := range sc.stamp {
		sc.stamp[i] = 1 // what generation 1 would read as "in the union"
	}
	sc.gen = math.MaxUint32
	for draw := 0; draw < 300; draw++ {
		sc.newUnion()
		if draw == 0 && sc.gen != 1 {
			t.Fatalf("generation after wrap = %d, want 1", sc.gen)
		}
		union := randItems(6)
		sc.addToUnion(union)
		var spare itemset.Itemset
		for m := r.Intn(5); m > 0; m-- {
			member := randItems(6)
			union, spare = unionInto(spare, union, member), union
			sc.addToUnion(member)
		}
		for probe := 0; probe < 20; probe++ {
			b := randItems(4)
			if r.Intn(2) == 0 && len(union) > 0 {
				// Draw half the probes from the union itself so containment
				// holds often, not only for the empty probe.
				raw := make([]int, 1+r.Intn(len(union)))
				for i := range raw {
					raw[i] = union[r.Intn(len(union))]
				}
				b = itemset.Canonical(raw)
			}
			if got, want := sc.inUnion(b), b.SubsetOf(union); got != want {
				t.Fatalf("draw %d (gen %d): inUnion(%v) = %v, SubsetOf(%v) = %v", draw, sc.gen, b, got, union, want)
			}
		}
	}
}
