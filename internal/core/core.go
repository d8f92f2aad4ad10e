// Package core implements Pattern-Fusion, the paper's contribution: an
// approximation algorithm for mining colossal frequent itemsets that fuses
// small core patterns into colossal ones in large leaps, instead of growing
// patterns one item at a time like Apriori or FP-growth.
//
// The concepts implemented here, with their paper references:
//
//   - core pattern and core ratio τ (Definition 3): β ⊆ α is a τ-core
//     pattern of α iff |Dα|/|Dβ| ≥ τ;
//   - (d,τ)-robustness (Definition 4) — see Robustness;
//   - pattern distance Dist(α,β) = 1 − |Dα∩Dβ|/|Dα∪Dβ| (Definition 6),
//     a metric (Theorem 1);
//   - the ball radius r(τ) = 1 − 1/(2/τ−1) bounding all core patterns of a
//     common pattern (Theorem 2) — see Radius;
//   - the two-phase mining model (Section 2.3): an initial pool of all
//     frequent patterns up to a small size, then iterative fusion of the
//     balls around K random seeds until at most K patterns remain
//     (Algorithms 1 and 2).
//
// Because the reverse of Theorem 2 does not hold, patterns caught by a ball
// need not share a common super-pattern; Fusion therefore re-verifies the
// core property during agglomeration and emits one super-pattern per
// randomized agglomeration pass, weighted-sampling the survivors when a
// seed generates too many (Section 4, "Fusion").
//
// # Parallel fusion
//
// Each iteration deals its K seed balls to the shared engine.Tasks
// scheduler on engine.Options.Parallelism workers (default: all CPUs);
// phase 1 mines the initial pool on the same worker count through
// apriori's level chunking. Every seed slot draws only from a
// private RNG stream derived from (Options.Seed, iteration, slot) via
// rng.Stream, and per-slot results are merged in slot order, so a run's
// Report is bit-identical for every Parallelism value — reproducibility
// depends on Options.Seed alone, never on scheduling or core count.
//
// # Hot path
//
// A fusion iteration does near-zero redundant work. Support counts are
// memoized on dataset.Pattern. Pattern distance depends only on the two
// support sets, so each step groups its pool by support set once
// (supportClasses, keyed by tidset.Set.Hash and confirmed by Equal), and
// a ball scan tests each class once instead of each pattern: Replace's
// ~21.6k-pattern initial pool holds only ~500–700 distinct TID-sets. Ball
// membership Dist(α,β) ≤ r(τ) is decided by count algebra (see
// ballThreshold): classes whose support counts are too far apart are
// rejected without touching the TID-sets at all, the rest by
// tidset.AndCountAtLeast with two-sided early exit — derived from the exact
// float64 predicate, so results never differ from the naive Distance scan.
// A sparse seed is written densely once per ball scan (ballOf), so its
// sparse candidates — most pairs on market-basket data — probe their
// elements against the seed's words instead of running a sorted merge.
// Each worker owns a fuseScratch for one step (reused ball, the seed's
// dense copy, shuffle order, working TID set, double-buffered itemset
// union, vertical dataset.Closer and its memo), and all dedup maps are
// keyed by 128-bit itemset.Fingerprint, so a fusion draw allocates only
// when it discovers a new super-pattern. The steps that dominated a draw
// are answered from lookups. Closing a fused pattern is a pure function
// of its support set, and most draws of a step land on a support set the
// worker has already closed, so closedOf memoises the closed pattern and
// its fingerprint per distinct support set (found by tidset.Set.Hash,
// confirmed by Equal); a miss tests each item of the first supporting
// transaction for column containment (dataset.Closer). Skipping a ball
// member that adds no items reads an item-stamp array mirroring the
// growing union, O(|member|) instead of a sorted merge against the
// union. Elitism selects its largest patterns by bounded insertion
// instead of sorting the pool. Bit-identity with the naive
// implementation is pinned by differential tests and by golden result
// hashes (TestResultGoldenBitIdentical, dense and sparse fixtures).
//
// The package's mining entry point is the registered engine algorithm
// "fusion" (engine.Get(Name).Mine); WithKnobs builds the unregistered
// variants the design-choice ablations run.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/rng"
	"repro/internal/tidset"
)

// Name is this algorithm's engine registry name.
const Name = "fusion"

const (
	// maxSupersPerSeed caps the distinct super-patterns a single seed may
	// contribute; beyond it, survivors are weighted-sampled by the number
	// of core patterns they fused (the paper's sampling heuristic).
	maxSupersPerSeed = 8
	// maxIterations is a safety bound on fusion iterations.
	maxIterations = 64
	// defaultInitPoolMaxSize bounds phase-1 pattern size when
	// Options.InitPoolMaxSize is zero: the paper's "small size, e.g., 3".
	defaultInitPoolMaxSize = 3
	// patternBlock is how many of the closure memo's patterns one block
	// allocation holds.
	patternBlock = 64
)

// Knobs are the fusion design choices the paper leaves to the
// implementation. The registered "fusion" algorithm always runs
// DefaultKnobs; WithKnobs builds the unregistered variants the ablation
// sweeps compare against it.
type Knobs struct {
	// FusionDraws is the number of randomized agglomeration passes per
	// seed; each pass can contribute one super-pattern.
	FusionDraws int
	// MaxBallSize bounds the CoreList considered per seed: when a seed's
	// ball holds more patterns, a random sample of this size is fused
	// instead. This implements the paper's "bounded-breadth" traversal
	// (Section 1: only a fixed number of patterns in the current candidate
	// pool is used) and keeps the per-iteration cost independent of the
	// pool size, which is what makes the Figure 10 curve level off.
	// Zero means unbounded.
	MaxBallSize int
	// Elitism carries the largest Elitism patterns of the current pool into
	// the next pool unconditionally. Algorithm 2 keeps only the K seeds'
	// fusion outputs, so a colossal pattern already discovered would
	// otherwise survive an iteration only if re-drawn as a seed (the paper
	// invokes this "survive with probability at most K/|S|" argument to
	// starve small patterns — elitism shields the large ones from the same
	// effect). Zero disables it.
	Elitism int
	// CloseFused replaces each fused super-pattern with its closure (the
	// intersection of the transactions in its support set). The closure
	// has the identical support set — it is the canonical representative
	// the closed-set ground truths of Figures 8 and 9 are stated in — so
	// this is a free quality win.
	CloseFused bool
}

// DefaultKnobs returns the knobs the registered algorithm runs with for a
// result budget of k patterns: ten draws per seed, balls sampled down to
// 2,048 members, the k/4+1 largest patterns kept by elitism, and fused
// patterns closed.
func DefaultKnobs(k int) Knobs {
	return Knobs{FusionDraws: 10, MaxBallSize: 2048, Elitism: k/4 + 1, CloseFused: true}
}

// params is one run's resolved parameter set: the engine options with
// their defaults filled in, plus the knobs.
type params struct {
	Knobs
	k        int     // result budget: fusion stops once at most k patterns remain
	tau      float64 // core ratio τ ∈ (0, 1] of Definition 3
	minCount int     // resolved absolute support threshold (≥ 1)
	seed     uint64  // root of every per-iteration and per-slot RNG stream
	workers  int     // fusion (and phase-1) worker goroutines
	obs      engine.Observer
}

// reseed materializes warm-start pool patterns against d from bare
// itemsets (a previous Report.Pool): each itemset is canonicalized and
// gets its TID set and support recomputed on the current — typically
// appended-to — dataset. Entries containing an item outside d's universe
// or supported by fewer than minCount transactions are dropped in place;
// order is otherwise preserved, which matters because fusion's seed
// sampling is a function of pool length and order. Warm-starting fusion
// from the result with the same options on the unchanged dataset reproduces
// the cold run's Report byte-for-byte; after appends it is the
// incremental approximation (absolute supports only grow under appends,
// so a fixed MinCount never drops a previously frequent seed).
func reseed(d *dataset.Dataset, pool [][]int, minCount int) []*dataset.Pattern {
	out := make([]*dataset.Pattern, 0, len(pool))
	for _, raw := range pool {
		alpha := itemset.Canonical(raw)
		if len(alpha) > 0 && (alpha[0] < 0 || alpha[len(alpha)-1] >= d.NumItems()) {
			continue
		}
		p := dataset.NewPattern(d, alpha)
		if p.Support() < minCount {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Radius returns r(τ) = 1 − 1/(2/τ − 1), the ball radius of Theorem 2: all
// τ-core patterns of a common pattern lie within pairwise pattern distance
// r(τ). It panics unless τ ∈ (0, 1].
func Radius(tau float64) float64 {
	if tau <= 0 || tau > 1 {
		panic(fmt.Sprintf("core: Radius requires tau in (0,1], got %v", tau))
	}
	return 1 - 1/(2/tau-1)
}

// mineFromPool runs phase 2 (iterative fusion) from pool, whose patterns
// must carry support sets computed against d; the slice is not modified.
// The report carries the final pool (at most p.k patterns, largest
// first), the iteration count and — with keepPool — the pool's itemsets
// for a later warm start. Cancellation is polled on ctx once per seed
// within each fusion iteration (by the scheduler, before each slot is
// claimed); the bit-identical-across-Parallelism guarantee applies to
// runs that complete without cancellation.
func mineFromPool(ctx context.Context, d *dataset.Dataset, pool []*dataset.Pattern, p params, keepPool bool) *engine.Report {
	rep := &engine.Report{InitPoolSize: len(pool)}
	if keepPool {
		rep.Pool = make([][]int, len(pool))
		for i, pat := range pool {
			rep.Pool[i] = pat.Items
		}
	}

	cur := append([]*dataset.Pattern(nil), pool...)
	// Memoize support counts up front: the ball search and the core-ratio
	// checks read them once per (seed, candidate) pair, and caller-supplied
	// pools may carry uncounted patterns.
	for _, pat := range cur {
		pat.EnsureSupport()
	}
	radius := Radius(p.tau)
	var classes supportClasses // each step's pool grouping, buffers reused
	// Per-worker scratch buffers, built once per run and lazily: a worker
	// that never claims a slot never pays for a scratch.
	scratchOf := engine.PerWorker(p.workers, func() *fuseScratch { return newFuseScratch(d) })
	// Algorithm 1 is a do-while: Pattern_Fusion runs at least once even when
	// the initial pool already holds at most K patterns (otherwise a pool of
	// singletons smaller than K would be returned unfused).
	for len(cur) > 0 && (rep.Iterations == 0 || len(cur) > p.k) && rep.Iterations < maxIterations {
		next, stopped := fusionStep(ctx, d, cur, &classes, scratchOf, &p, radius, rep.Iterations)
		if stopped {
			rep.Stopped = true
			break
		}
		rep.Iterations++
		p.obs.Emit(engine.Event{
			Algorithm: Name, Phase: engine.PhaseIteration,
			Iteration: rep.Iterations, PoolSize: len(next), Pool: next,
		})
		if len(next) == len(cur) && slices.Equal(poolFingerprints(next), poolFingerprints(cur)) {
			// Fixed point: no fusion is possible anymore (every seed's ball
			// fuses to itself). Keep the K largest and stop. Fingerprint
			// lists of different lengths never compare equal, so only
			// pools of equal size are fingerprinted.
			cur = next
			break
		}
		cur = next
	}
	dataset.SortPatterns(cur)
	if len(cur) > p.k {
		cur = cur[:p.k]
	}
	rep.Patterns = cur
	return rep
}

// fusionStep is one iteration of Algorithm 2 (Pattern_Fusion): draw K seed
// patterns, find each seed's ball of radius r(τ), fuse each ball into
// super-patterns, and return the union of all super-patterns as the next
// pool.
//
// The K seeds are independent, so they are dealt to p.workers scheduler
// workers. Determinism regardless of worker count comes from two rules:
// every seed slot s draws only from its private stream
// rng.Stream(p.seed, iteration, s) (the seed indices themselves come from
// the iteration-level stream rng.Stream(p.seed, iteration)), and per-slot
// outputs are concatenated in slot order before dedup. Scheduling can
// change which goroutine fuses which seed, but never what any seed
// produces or where its output lands.
//
// The seed slots are dealt to the shared engine.Tasks scheduler — the
// same scheduler every registry miner parallelizes on — which polls ctx
// before each slot, so cancellation aborts the step without waiting for
// the remaining seeds. A stopped step reports stopped=true and its
// partial output is discarded.
//
// Before the seeds are dealt, the pool is grouped by support set into
// classes, whose buffers the caller reuses from step to step; the
// workers only read the grouping.
func fusionStep(ctx context.Context, d *dataset.Dataset, pool []*dataset.Pattern, classes *supportClasses, scratchOf func(worker int) *fuseScratch, p *params, radius float64, iteration int) (next []*dataset.Pattern, stopped bool) {
	seedIdx := rng.Stream(p.seed, uint64(iteration)).SampleInts(len(pool), p.k)
	perSeed := make([][]*dataset.Pattern, len(seedIdx))
	classes.group(pool)
	fuseSlot := func(slot int, sc *fuseScratch) {
		sc.startStep(iteration)
		r := rng.Stream(p.seed, uint64(iteration), uint64(slot))
		seed := pool[seedIdx[slot]]
		ball := sc.ballOf(seed, pool, classes, radius)
		if p.MaxBallSize > 0 && len(ball) > p.MaxBallSize {
			sampled := sc.sample[:0]
			for _, i := range r.SampleIntsScratch(len(ball), p.MaxBallSize, &sc.draw) {
				sampled = append(sampled, ball[i])
			}
			sc.sample = sampled
			ball = sampled
		}
		perSeed[slot] = fuse(d, seed, ball, p, r, sc)
	}

	if engine.Tasks(ctx, p.workers, len(seedIdx), func(worker, slot int) { fuseSlot(slot, scratchOf(worker)) }) {
		return nil, true
	}

	for _, ps := range perSeed {
		next = append(next, ps...)
	}
	if p.Elitism > 0 {
		// Shield the largest patterns found so far from seed-lottery death.
		next = append(next, elite(pool, p.Elitism)...)
	}
	return dataset.DedupPatterns(next), false
}

// elite returns the first n (≥ 1) patterns of pool in dataset.SortPatterns'
// order without sorting the pool: a bounded insertion keeps the n first
// patterns seen so far, so a pattern that does not precede the current
// n-th costs one comparison. dataset.ComparePatterns is total on a pool of
// distinct itemsets, so the result is SortPatterns' prefix, pattern for
// pattern.
func elite(pool []*dataset.Pattern, n int) []*dataset.Pattern {
	top := make([]*dataset.Pattern, 0, min(n, len(pool)))
	for _, p := range pool {
		if len(top) == n {
			if dataset.ComparePatterns(p, top[n-1]) >= 0 {
				continue
			}
			top = top[:n-1]
		}
		i := len(top)
		top = append(top, p)
		for ; i > 0 && dataset.ComparePatterns(p, top[i-1]) < 0; i-- {
			top[i] = top[i-1]
		}
		top[i] = p
	}
	return top
}

// hashChains numbers entries 0, 1, … in order of addition and finds them
// by a 64-bit hash. The entries that share a hash are chained, newest
// first, and a lookup confirms each one with the caller's match, so a
// hash collision costs a comparison, never a wrong entry.
type hashChains struct {
	next []int32          // next[e] is the previous entry with e's hash, or -1
	head map[uint64]int32 // head[h] is the last entry with hash h
}

// reset forgets every entry, keeping the buffers.
func (c *hashChains) reset() {
	clear(c.head)
	c.next = c.next[:0]
}

// find returns the newest entry with hash h that match accepts, or -1.
func (c *hashChains) find(h uint64, match func(e int32) bool) int32 {
	e, ok := c.head[h]
	if !ok {
		return -1
	}
	for ; e >= 0; e = c.next[e] {
		if match(e) {
			return e
		}
	}
	return -1
}

// add appends an entry with hash h and returns its number.
func (c *hashChains) add(h uint64) int32 {
	if c.head == nil {
		c.head = make(map[uint64]int32)
	}
	last, ok := c.head[h]
	if !ok {
		last = -1
	}
	e := int32(len(c.next))
	c.next = append(c.next, last)
	c.head[h] = e
	return e
}

// supportClasses is a pool grouped by support set. Pattern distance
// depends only on the two support sets, so a ball scan decides membership
// once per class instead of once per pattern: on Replace's initial pool,
// ~21.6k patterns share ~500–700 distinct TID-sets. It holds pool
// indices, never patterns, so the buffers one mine reuses from step to
// step keep no earlier pool alive.
type supportClasses struct {
	of     []int32    // of[i] is the class of pool[i]
	reps   []int32    // reps[c] is the pool index of class c's first pattern
	chains hashChains // the classes by tidset.Set.Hash of their support set
}

// group groups pool by support set, numbering the classes in order of
// first appearance in pool (never in map order). Classes are found by
// tidset.Set.Hash and told apart by Equal, so a hash collision costs a
// comparison, never a wrong class.
func (g *supportClasses) group(pool []*dataset.Pattern) {
	g.chains.reset()
	g.of = slices.Grow(g.of[:0], len(pool))[:len(pool)]
	g.reps = g.reps[:0]
	for i, p := range pool {
		h := p.TIDs.Hash()
		c := g.chains.find(h, func(c int32) bool { return pool[g.reps[c]].TIDs.Equal(p.TIDs) })
		if c < 0 {
			c = g.chains.add(h)
			g.reps = append(g.reps, int32(i))
		}
		g.of[i] = c
	}
}

// ballOf returns the ball of seed in the grouped pool: every other pool
// pattern within pattern distance radius of it — the seed's CoreList in
// the paper's terms — in pool order, in sc.ball. Each support class is
// tested once, on its representative, into sc.verdict, and the ball is
// every pattern of an accepted class except the seed itself (the seed's
// own class is at distance 0, so its other patterns are in the ball).
// A class is tested by count algebra instead of a full Jaccard:
// Dist(α,β) ≤ r iff |Dα∩Dβ| ≥ i*, where i* depends only on the two
// support counts (ballThreshold). Classes whose supports are too far
// apart (1 − min/max > r) are rejected without touching a TID, and the
// rest run AndCountAtLeast, which stops as soon as the bound is decided
// either way.
//
// A sparse seed is written densely once into sc.seedDense, and every sparse
// candidate probes its elements against those words instead of merging
// with the seed's sorted array; a dense candidate keeps the seed's own
// pairing. The verdicts do not depend on the representation, so the ball
// is the naive Distance scan's.
func (sc *fuseScratch) ballOf(seed *dataset.Pattern, pool []*dataset.Pattern, g *supportClasses, radius float64) []*dataset.Pattern {
	sa := seed.Support()
	dense := seed.TIDs
	if !dense.IsDense() {
		sc.seedDense.DenseCopyFrom(dense)
		dense = sc.seedDense
	}
	verdict := sc.verdict[:0]
	for _, ri := range g.reps {
		rep := pool[ri]
		t := ballThreshold(sa, rep.Support(), radius)
		probe := seed.TIDs
		if !rep.TIDs.IsDense() {
			probe = dense
		}
		verdict = append(verdict, t >= 0 && probe.AndCountAtLeast(rep.TIDs, t))
	}
	sc.verdict = verdict
	ball := sc.ball[:0]
	for i, cand := range pool {
		if cand != seed && verdict[g.of[i]] {
			ball = append(ball, cand)
		}
	}
	sc.ball = ball
	return ball
}

// ballThreshold returns the minimal intersection count i* such that
// 1 − i/(sa+sb−i) ≤ radius — evaluated with the exact float64 arithmetic of
// tidset.Set.Distance, so AndCountAtLeast(…, i*) reproduces the naive
// Distance ≤ radius test bit for bit — or −1 when no i ≤ min(sa,sb)
// satisfies it (the pair cannot be within the ball no matter how the
// support sets overlap; this is the 1 − min/max > r prefilter).
//
// The count algebra: Dist ≤ r ⟺ |Dα∩Dβ| ≥ (1−r)·|Dα∪Dβ| with
// |Dα∪Dβ| = sa+sb−|Dα∩Dβ|, and the left side of the predicate is monotone
// in the intersection count, so i* is found by binary search on the exact
// predicate (≈ log₂ min(sa,sb) float divisions, no bitset words touched).
func ballThreshold(sa, sb int, radius float64) int {
	smin := sa
	if sb < smin {
		smin = sb
	}
	pred := func(i int) bool {
		union := sa + sb - i
		if union == 0 {
			return true // both supports empty: Jaccard 1, distance 0
		}
		return 1-float64(i)/float64(union) <= radius
	}
	if !pred(smin) {
		return -1
	}
	lo, hi := 0, smin
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// fuseScratch holds the per-worker reusable buffers that make a fusion draw
// allocation-free: the ball and its sample, the seed's dense copy, the
// per-class ball verdicts, the shuffle order, the working TID set, the
// double-buffered itemset union with its item-stamp mirror, the vertical
// closure with its memo, and the per-seed supers map. One scratch is owned
// by exactly one worker goroutine and lives for the whole mine; only its
// closure memo is per step.
type fuseScratch struct {
	ball      []*dataset.Pattern
	sample    []*dataset.Pattern
	seedDense *tidset.Set // a sparse seed's TID-set in dense form, for ballOf
	verdict   []bool      // verdict[c]: support class c is in the seed's ball
	order     []int
	tids      *tidset.Set
	itemsA    itemset.Itemset
	itemsB    itemset.Itemset
	// stamp mirrors the draw's growing union for O(|b|) containment tests:
	// item it is in the union iff stamp[it] == gen. A new draw bumps gen
	// instead of clearing the array.
	stamp  []uint32
	gen    uint32
	closer *dataset.Closer
	// closed memoises closedOf for the fusion step numbered step:
	// closed[e] is entry e of closedIdx, found by the tidset.Set.Hash of
	// its support set. Its patterns are carved from blocks in pats.
	step      int
	closed    []closedPattern
	closedIdx hashChains
	pats      []dataset.Pattern
	supers    map[itemset.Fingerprint]super
	// Arenas back the retained copies behind newly discovered
	// super-patterns: per-pattern itemset/TID-set/header allocations
	// become amortized block carves, the same trick the exact miners use.
	// Discarded candidates pin their block until every pattern carved
	// from it dies — bounded per step, since the pool is rebuilt each
	// iteration.
	itemArena itemset.Arena
	tidArena  tidset.Arena
	draw      rng.SampleScratch
}

type super struct {
	p     *dataset.Pattern
	fused int // |t_βi|: how many ball members were fused in
}

// closedPattern is a closed pattern with the fingerprint of its itemset.
type closedPattern struct {
	p  *dataset.Pattern
	fp itemset.Fingerprint
}

// closedOf returns the closed pattern whose support set is tids (which
// must be the support set of an itemset, and non-empty): its itemset is
// the closure of tids and its TID-set a compact copy of tids, carved
// with the pattern itself from the scratch's blocks. Closure is a pure
// function of the support set, so the answer is memoised for the
// scratch's step, and a later query with an Equal set — from this seed or
// any other seed the worker fuses — returns the same pattern for a hash
// and a comparison instead of the closure, the fingerprint and the
// copies. The memo's answers do not depend on which seeds filled it, so
// it keeps fusion deterministic at any parallelism.
func (sc *fuseScratch) closedOf(tids *tidset.Set) closedPattern {
	h := tids.Hash()
	if e := sc.closedIdx.find(h, func(e int32) bool { return sc.closed[e].p.TIDs.Equal(tids) }); e >= 0 {
		return sc.closed[e]
	}
	items := sc.itemArena.Copy(sc.closer.Closure(tids))
	if len(sc.pats) == cap(sc.pats) {
		sc.pats = make([]dataset.Pattern, 0, patternBlock)
	}
	sc.pats = append(sc.pats, *dataset.NewPatternCounted(items, sc.tidArena.CompactClone(tids), tids.Count()))
	c := closedPattern{p: &sc.pats[len(sc.pats)-1], fp: items.Fingerprint()}
	sc.closedIdx.add(h)
	sc.closed = append(sc.closed, c)
	return c
}

// startStep empties the closure memo when the scratch enters a new
// fusion step. The pattern blocks and arenas are dropped, not reset:
// their patterns escape into the next pool. Every pointer the buffers
// still hold into the previous pool is cleared, so that pool can be
// freed while this step runs.
func (sc *fuseScratch) startStep(iteration int) {
	if sc.step != iteration {
		clear(sc.ball[:cap(sc.ball)])
		clear(sc.sample[:cap(sc.sample)])
		clear(sc.closed)
		sc.closedIdx.reset()
		sc.step, sc.closed, sc.pats = iteration, sc.closed[:0], nil
		sc.itemArena, sc.tidArena = itemset.Arena{}, tidset.Arena{}
	}
}

func newFuseScratch(d *dataset.Dataset) *fuseScratch {
	return &fuseScratch{
		seedDense: tidset.New(d.Size()),
		tids:      tidset.New(d.Size()),
		stamp:     make([]uint32, d.NumItems()),
		closer:    dataset.NewCloser(d),
		supers:    make(map[itemset.Fingerprint]super),
	}
}

// newUnion starts an empty item-stamp union for the next draw. When the
// generation counter wraps, every stale stamp is cleared so none can
// collide with the restarted generations.
func (sc *fuseScratch) newUnion() {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.stamp)
		sc.gen = 1
	}
}

// addToUnion stamps items into the current draw's union.
func (sc *fuseScratch) addToUnion(items itemset.Itemset) {
	for _, it := range items {
		sc.stamp[it] = sc.gen
	}
}

// inUnion reports whether every item of items is in the current draw's
// union — Itemset.SubsetOf against the sorted union, in O(|items|).
func (sc *fuseScratch) inUnion(items itemset.Itemset) bool {
	for _, it := range items {
		if sc.stamp[it] != sc.gen {
			return false
		}
	}
	return true
}

// unionInto writes a ∪ b into dst (reused, must not alias a or b) and
// returns it.
func unionInto(dst, a, b itemset.Itemset) itemset.Itemset {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// fuse generates super-patterns from a seed and its ball (Section 4,
// function Fusion). Each randomized pass agglomerates ball members into the
// seed as long as the grown pattern stays frequent and every fused member —
// including the seed and all previously fused ones — remains a τ-core
// pattern of it; one super-pattern is emitted per pass. If more than
// maxSupersPerSeed distinct super-patterns result, survivors are
// sampled with probability proportional to the number of core patterns
// they fused (patterns of larger core-sets are kept with higher
// probability, steering the search toward colossal patterns).
func fuse(d *dataset.Dataset, seed *dataset.Pattern, ball []*dataset.Pattern, p *params, r *rng.RNG, sc *fuseScratch) []*dataset.Pattern {
	if len(ball) == 0 {
		return []*dataset.Pattern{seed}
	}
	supers := sc.supers
	clear(supers)

	// emit records the super-pattern pat, whose itemset has fingerprint fp,
	// as a candidate that fused `fused` ball members. Repeated draws landing
	// on the same super-pattern (the common case late in a run) cost a map
	// probe. Replaying a draw with a larger fused count keeps the existing
	// pattern — identical itemsets have identical support sets (Lemma 1),
	// so only the weight changes.
	emit := func(fp itemset.Fingerprint, pat *dataset.Pattern, fused int) {
		prev, ok := supers[fp]
		switch {
		case !ok:
			supers[fp] = super{p: pat, fused: fused}
		case fused > prev.fused:
			prev.fused = fused
			supers[fp] = prev
		}
	}

	// The seed's own closure is always a candidate: it is the closed
	// pattern with the seed's exact support set, which is how mid-level
	// colossal patterns (whose supersets are still frequent, so saturating
	// merges would always run past them) get generated.
	if p.CloseFused && !seed.TIDs.Empty() {
		c := sc.closedOf(seed.TIDs)
		emit(c.fp, c.p, 0)
	}

	if cap(sc.order) < len(ball) {
		sc.order = make([]int, len(ball))
	}
	order := sc.order[:len(ball)]
	for i := range order {
		order[i] = i
	}
	maxExp := 1
	for 1<<uint(maxExp) < len(ball) {
		maxExp++
	}
	for draw := 0; draw < p.FusionDraws; draw++ {
		r.ShuffleInts(order)
		// Each pass fuses a random-size subset t_β ⊆ CoreList (Section 4).
		// The merge budget is drawn on a geometric scale (1, 2, 4, …, |ball|)
		// so that shallow passes — which surface mid-sized super-patterns —
		// occur with non-vanishing probability even for huge balls, while
		// deep passes still reach the largest unions.
		budget := 1 << uint(r.Intn(maxExp+1))
		items := append(sc.itemsA[:0], seed.Items...)
		spare := sc.itemsB
		sc.newUnion()
		sc.addToUnion(seed.Items)
		tids := sc.tids
		tids.CopyFrom(seed.TIDs)
		sup := seed.Support()
		maxMemberSup := sup
		fused := 0
		for _, bi := range order {
			if fused >= budget {
				break
			}
			b := ball[bi]
			if sc.inUnion(b.Items) {
				continue // no growth; D would not change for the union's sake
			}
			nsup := tids.AndCount(b.TIDs)
			if nsup < p.minCount {
				continue
			}
			bSup := b.Support()
			limit := maxMemberSup
			if bSup > limit {
				limit = bSup
			}
			// Core-pattern check (Definition 3): every member m fused so far
			// must satisfy |D_fused| ≥ τ·|D_m|; the member with the largest
			// support is the binding constraint.
			if float64(nsup) < p.tau*float64(limit) {
				continue
			}
			items, spare = unionInto(spare, items, b.Items), items
			sc.addToUnion(b.Items)
			tids.InPlaceAnd(b.TIDs)
			sup = nsup
			if bSup > maxMemberSup {
				maxMemberSup = bSup
			}
			fused++
		}
		// Keep the two (possibly grown) buffers for the next draw; which
		// lineage ends up in which field is irrelevant, they only need to
		// stay distinct.
		sc.itemsA, sc.itemsB = items, spare
		if p.CloseFused && !tids.Empty() {
			// Canonicalize to the closed pattern with the same support set.
			c := sc.closedOf(tids)
			emit(c.fp, c.p, fused)
			continue
		}
		// Unclosed, the union itself is the candidate: it is copied out of
		// the scratch only when it is new to this seed.
		fp := items.Fingerprint()
		var pat *dataset.Pattern
		if _, ok := supers[fp]; !ok {
			pat = dataset.NewPatternCounted(sc.itemArena.Copy(items), sc.tidArena.CompactClone(tids), sup)
		}
		emit(fp, pat, fused)
	}
	out := make([]super, 0, len(supers))
	for _, s := range supers {
		out = append(out, s)
	}
	// Deterministic order before any sampling.
	sort.Slice(out, func(i, j int) bool {
		return itemset.Compare(out[i].p.Items, out[j].p.Items) < 0
	})
	if len(out) > maxSupersPerSeed {
		weights := make([]float64, len(out))
		for i, s := range out {
			weights[i] = float64(s.fused + 1)
		}
		keep := r.WeightedSample(weights, maxSupersPerSeed)
		sort.Ints(keep)
		sampled := make([]super, 0, len(keep))
		for _, i := range keep {
			sampled = append(sampled, out[i])
		}
		out = sampled
	}
	ps := make([]*dataset.Pattern, len(out))
	for i, s := range out {
		ps[i] = s.p
	}
	return ps
}

// poolFingerprints summarizes a pool's itemset contents, independent of
// order, as a sorted fingerprint slice; consecutive pools compare equal iff
// they hold the same itemsets (fingerprint collisions aside).
func poolFingerprints(ps []*dataset.Pattern) []itemset.Fingerprint {
	fps := make([]itemset.Fingerprint, len(ps))
	for i, p := range ps {
		fps[i] = p.Items.Fingerprint()
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i].Less(fps[j]) })
	return fps
}

// IsCore reports whether beta is a τ-core pattern of alpha in d
// (Definition 3): β ⊆ α and |Dα|/|Dβ| ≥ τ. Patterns with empty support
// sets are never core patterns.
func IsCore(d *dataset.Dataset, beta, alpha itemset.Itemset, tau float64) bool {
	if !beta.SubsetOf(alpha) {
		return false
	}
	sa := d.SupportCount(alpha)
	sb := d.SupportCount(beta)
	if sb == 0 || sa == 0 {
		return false
	}
	return float64(sa)/float64(sb) >= tau
}

// CorePatterns enumerates all non-empty τ-core patterns of alpha in d
// (the set C_α of Definition 3). It panics if |alpha| > 24 to avoid
// runaway subset enumeration; it is an analysis utility, not part of the
// mining path.
func CorePatterns(d *dataset.Dataset, alpha itemset.Itemset, tau float64) []itemset.Itemset {
	if len(alpha) > 24 {
		panic("core: CorePatterns on itemset larger than 24")
	}
	sa := d.SupportCount(alpha)
	var out []itemset.Itemset
	if sa == 0 {
		return out
	}
	itemset.Subsets(alpha, func(sub itemset.Itemset) {
		if len(sub) == 0 {
			return
		}
		sb := d.SupportCount(sub)
		if sb > 0 && float64(sa)/float64(sb) >= tau {
			out = append(out, sub.Clone())
		}
	})
	itemset.SortSet(out)
	return out
}

// Robustness returns the d of Definition 4: the maximum number of items
// that can be removed from alpha such that the result is still a τ-core
// pattern of alpha. It panics if |alpha| > 24.
func Robustness(d *dataset.Dataset, alpha itemset.Itemset, tau float64) int {
	best := 0
	for _, c := range CorePatterns(d, alpha, tau) {
		if r := len(alpha) - len(c); r > best {
			best = r
		}
	}
	return best
}

// ComplementarySets counts the sets of complementary core patterns of
// alpha (Definition 7): subsets S ⊆ C_α \ {α} with ∪S = α. Exponential in
// |C_α|; analysis utility for small examples only (it panics if
// |C_α| > 20).
func ComplementarySets(d *dataset.Dataset, alpha itemset.Itemset, tau float64) int {
	cores := CorePatterns(d, alpha, tau)
	var proper []itemset.Itemset
	for _, c := range cores {
		if !c.Equal(alpha) {
			proper = append(proper, c)
		}
	}
	if len(proper) > 20 {
		panic("core: ComplementarySets with more than 20 proper core patterns")
	}
	count := 0
	for mask := 1; mask < 1<<uint(len(proper)); mask++ {
		var u itemset.Itemset
		for i := 0; i < len(proper); i++ {
			if mask&(1<<uint(i)) != 0 {
				u = u.Union(proper[i])
			}
		}
		if u.Equal(alpha) {
			count++
		}
	}
	return count
}
