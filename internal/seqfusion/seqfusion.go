// Package seqfusion promotes the sequence extension of Pattern-Fusion
// (ball search over support-set distance, closures by weighted-LCS
// folding over the internal/seq algebra) to a first-class engine miner —
// the ninth algorithm in the registry, and the paper's Section 8
// direction made reachable from pfmine, pfserve and the distributed
// coordinator.
//
// Support sets are the dataset's own: the sequence extension changes the
// pattern algebra, not D_α. dataset.SetSequences checks that the
// distinct events of an ordered row are its transaction, so the item
// column of event e is exactly the set of rows containing e, and a
// subsequence's support set is the intersection of its events' columns
// filtered by the order-preserving containment test.
//
// The engine contract forces one structural change against the itemset
// miner's iterative global pool shrinkage: reports must be byte-identical
// for any Parallelism and for any shard cut, so the search is decomposed
// into K independent *seed-slot trajectories* over a static initial
// pool. Slot s derives its own rng.Stream(seed, s), picks a seed from
// the pool of frequent 1- and 2-grams, and iterates ball fusion around
// its evolving support set to a fixed point: each step intersects the
// support sets of in-ball pool members (τ-core and MinCount gated, in
// the slot's own random order) and keeps the shrunken set only while it
// stays frequent. The slot's answer is the weighted-LCS fold closure of
// the converged support set. Slots never observe one another, so the
// shared Tasks scheduler runs them on any worker count — and any
// contiguous slot range can be leased to a remote peer — without the
// schedule leaking into the result; duplicates across slots are removed
// in slot order at merge time.
//
// The report carries the paper's Section 5 approximation-error estimate:
// Report.Quality.Delta is Δ of the final patterns against the initial
// pool they were fused from (patterns and pool compared as their
// distinct-event itemsets, the metric quality.Delta defines).
package seqfusion

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/seq"
	"repro/internal/tidset"
)

// Name is the engine registry name.
const Name = "seqfusion"

// config is the resolved parameter set of one run; a pure function of
// (dataset, engine.Options), shared by a run's plan, its slots and its
// merge.
type config struct {
	k        int     // seed slots = task units = max patterns
	tau      float64 // core ratio τ
	radius   float64 // r(τ) ball radius
	minCount int     // absolute support threshold
	minSize  int     // minimum reported pattern length (0 = none)
	seed     uint64  // RNG root; slot s streams rng.Stream(seed, s)
	maxIters int     // per-slot fusion iteration bound
	maxBall  int     // per-step ball size bound
}

// resolve maps engine options (already range-checked by
// engine.Options.Validate) onto a config, with the same
// zero-means-default reading the fusion adapter uses.
func resolve(d *dataset.Dataset, opts engine.Options) config {
	cfg := config{
		k:        opts.K,
		tau:      opts.Tau,
		minCount: opts.ResolveMinCount(d),
		minSize:  opts.MinSize,
		seed:     opts.Seed,
		maxIters: 32,
		maxBall:  1024,
	}
	if cfg.k == 0 {
		cfg.k = 100
	}
	if cfg.tau == 0 {
		cfg.tau = 0.5
	}
	if cfg.seed == 0 {
		cfg.seed = 1
	}
	cfg.radius = 1 - 1/(2/cfg.tau-1)
	return cfg
}

// view is the ordered reading of a dataset the sequence algebra runs on:
// the attached sequences when a sequence-format ingestion provided them,
// else the canonical transactions read as ascending sequences (the
// Replace reading: a planted itemset in sorted rows is a planted
// subsequence). Both are read in place, so everything mined from the
// view remains a pure function of the dataset.
type view struct {
	d    *dataset.Dataset
	seqs [][]int // d.Sequences(); nil means read the transactions
}

func newView(d *dataset.Dataset) view { return view{d: d, seqs: d.Sequences()} }

// row returns row tid as a sequence (shared; callers must not modify it).
func (v view) row(tid int) seq.Sequence {
	if v.seqs != nil {
		return v.seqs[tid]
	}
	return seq.Sequence(v.d.Transaction(tid))
}

// tidSet returns the support set of pattern p: the rows containing p as
// a subsequence. The item columns of p's events prune the candidates;
// each survivor is verified with the order-preserving containment test.
// Events outside the item universe have an empty support set, and the
// empty pattern is contained in every row.
func (v view) tidSet(p seq.Sequence) *tidset.Set {
	tids := v.d.TIDSet(itemset.Canonical(p))
	var miss []int
	tids.ForEach(func(tid int) {
		if !p.IsSubsequenceOf(v.row(tid)) {
			miss = append(miss, tid)
		}
	})
	for _, tid := range miss {
		tids.Remove(tid)
	}
	return tids
}

// foldClosure approximates the closure of a support set: the heaviest
// sequence common to every row in tids, computed by folding the weighted
// LCS left to right with each event weighted by its support within tids.
// It returns nil for an empty tids.
func (v view) foldClosure(tids *tidset.Set) seq.Sequence {
	first := tids.NextSet(0)
	if first < 0 {
		return nil
	}
	weight := func(e int) float64 { return float64(v.d.ItemTIDs(e).AndCount(tids)) }
	acc := v.row(first).Clone()
	for tid := tids.NextSet(first + 1); tid >= 0 && len(acc) > 0; tid = tids.NextSet(tid + 1) {
		acc = seq.WeightedLCS(acc, v.row(tid), weight)
	}
	return acc
}

// candidate is one initial-pool pattern with its support set. Pool sets
// are shared read-only by every slot (a unigram's is the item column
// itself).
type candidate struct {
	seq  seq.Sequence
	tids *tidset.Set
}

// initPool mines the static candidate pool: every frequent unigram in
// event order, then every frequent contiguous bigram in first-occurrence
// order — every colossal subsequence contains many frequent bigrams, so
// they suffice to seed the balls. On cancellation it returns the partial
// pool and true.
func initPool(ctx context.Context, v view, minCount int) ([]candidate, bool) {
	var pool []candidate
	for e := 0; e < v.d.NumItems(); e++ {
		if ctx.Err() != nil {
			return pool, true
		}
		if col := v.d.ItemTIDs(e); col.Count() >= minCount {
			pool = append(pool, candidate{seq: seq.Sequence{e}, tids: col})
		}
	}
	seen := make(map[string]bool)
	for tid := 0; tid < v.d.Size(); tid++ {
		if ctx.Err() != nil {
			return pool, true
		}
		s := v.row(tid)
		for i := 0; i+1 < len(s); i++ {
			bi := seq.Sequence{s[i], s[i+1]}
			if seen[bi.Key()] {
				continue
			}
			seen[bi.Key()] = true
			tids := v.tidSet(bi)
			if tids.Count() >= minCount {
				pool = append(pool, candidate{seq: bi, tids: tids})
			}
		}
	}
	return pool, false
}

// slotResult is one seed slot's contribution: the closure it converged
// to (nil when the slot emitted nothing), the fusion iterations it spent
// and whether cancellation cut its trajectory short.
type slotResult struct {
	seq     seq.Sequence
	sup     int
	iters   int
	stopped bool
}

// mineSlot runs seed-slot trajectory s to its fixed point. Everything it
// reads — the pool, its supports, the dataset — is shared read-only
// state; its RNG is the slot's own pure stream, so the result depends
// only on (v, pool, cfg, s).
func mineSlot(v view, pool []candidate, sups []int, cfg config, s int, meter *engine.Meter) slotResult {
	if len(pool) == 0 {
		return slotResult{}
	}
	r := rng.Stream(cfg.seed, uint64(s))
	si := r.Intn(len(pool))
	tids := pool[si].tids
	var res slotResult
	for res.iters < cfg.maxIters {
		if meter.Canceled() {
			res.stopped = true
			return res
		}
		res.iters++
		fused := fuseBall(pool, sups, si, tids, cfg, r)
		if fused.Count() == tids.Count() { // fused ⊆ tids: equal counts ⇒ fixed point
			break
		}
		tids = fused
	}
	closure := v.foldClosure(tids)
	if len(closure) == 0 || len(closure) < cfg.minSize {
		return res
	}
	ctids := v.tidSet(closure)
	if ctids.Count() < cfg.minCount {
		// The fold heuristic can overshoot the true common subsequence on
		// adversarial data; an infrequent closure is not a pattern.
		return res
	}
	res.seq = closure
	res.sup = ctids.Count()
	return res
}

// fuseBall performs one fusion step around the current support set: the
// r(τ)-ball of pool members within radius (seed excluded, sampled down
// to maxBall), intersected in the slot's random order under the τ-core
// and MinCount gates. The result is always a subset of tids.
func fuseBall(pool []candidate, sups []int, seedIdx int, tids *tidset.Set, cfg config, r *rng.RNG) *tidset.Set {
	var ball []int
	for pi := range pool {
		if pi == seedIdx {
			continue
		}
		if tids.Distance(pool[pi].tids) <= cfg.radius {
			ball = append(ball, pi)
		}
	}
	if cfg.maxBall > 0 && len(ball) > cfg.maxBall {
		sampled := make([]int, 0, cfg.maxBall)
		for _, i := range r.SampleInts(len(ball), cfg.maxBall) {
			sampled = append(sampled, ball[i])
		}
		ball = sampled
	}
	order := r.Perm(len(ball))
	fused := tids.Clone()
	maxSup := fused.Count()
	for _, oi := range order {
		pi := ball[oi]
		nsup := fused.AndCount(pool[pi].tids)
		if nsup < cfg.minCount {
			continue
		}
		limit := maxSup
		if sups[pi] > limit {
			limit = sups[pi]
		}
		if float64(nsup) < cfg.tau*float64(limit) {
			continue
		}
		fused.InPlaceAnd(pool[pi].tids)
		if sups[pi] > maxSup {
			maxSup = sups[pi]
		}
	}
	return fused
}

// split plans a run: the root work is building the initial pool, and
// the task units are the K seed slots. The plan's Merge concatenates
// slot reports in slot order with duplicates removed (first slot wins)
// and — for completed runs — attaches Δ against the plan's pool.
// Cancellation yields the slots mined so far with Stopped set.
func split(ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Plan {
	cfg := resolve(d, opts)
	root := &engine.Report{}
	plan := &engine.Plan{Root: root, Units: cfg.k}
	if ctx.Err() != nil {
		root.Stopped = true
		return plan
	}
	v := newView(d)
	pool, stopped := initPool(ctx, v, cfg.minCount)
	root.InitPoolSize = len(pool)
	root.Stopped = stopped
	plan.Merge = func(parts []*engine.Report) *engine.Report {
		rep := engine.Concat(parts)
		seen := make(map[string]bool)
		var kept []*dataset.Pattern
		for _, p := range rep.Patterns {
			key := seq.Sequence(p.Items).Key()
			if !seen[key] {
				seen[key] = true
				kept = append(kept, p)
			}
		}
		rep.Patterns = kept
		if !rep.Stopped {
			rep.Quality = estimateQuality(pool, kept)
		}
		return rep
	}
	if stopped {
		return plan
	}
	meter := engine.NewMeter(ctx, Name, opts.Observer)
	opts.Observer.Emit(engine.Event{Algorithm: Name, Phase: engine.PhaseInitPool, PoolSize: len(pool)})
	sups := make([]int, len(pool))
	for i, p := range pool {
		sups[i] = p.tids.Count()
	}
	plan.Task = func(_, unit int) *engine.Report {
		slot := mineSlot(v, pool, sups, cfg, unit, meter)
		rep := &engine.Report{Iterations: slot.iters, Stopped: slot.stopped}
		emitted := 0
		if slot.seq != nil {
			emitted = 1
			items := append([]int(nil), slot.seq...)
			rep.Patterns = []*dataset.Pattern{dataset.NewPatternCounted(items, nil, slot.sup)}
		}
		meter.Visit(emitted)
		return rep
	}
	return plan
}

// estimateQuality computes Δ of the mined patterns against the initial
// pool. Patterns and pool entries are compared as their distinct-event
// itemsets — the algebra quality.Delta is defined over. A run with no
// patterns against a non-empty pool has no defined partition, so it
// carries no estimate.
func estimateQuality(pool []candidate, patterns []*dataset.Pattern) *engine.Quality {
	q := make([]itemset.Itemset, len(pool))
	for i, p := range pool {
		q[i] = itemset.Canonical(p.seq)
	}
	p := make([]itemset.Itemset, len(patterns))
	for i, pat := range patterns {
		p[i] = itemset.Canonical(pat.Items)
	}
	if len(p) == 0 && len(q) > 0 {
		return nil
	}
	return &engine.Quality{Delta: quality.Delta(p, q)}
}
