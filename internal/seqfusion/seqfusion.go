// Package seqfusion promotes the sequence extension of Pattern-Fusion
// (internal/seq: ball search over support-set distance, closures by
// weighted-LCS folding) to a first-class engine miner — the ninth
// algorithm in the registry, and the paper's Section 8 direction made
// reachable from pfmine, pfserve and the distributed coordinator.
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

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/seq"
)

// Name is the engine registry name.
const Name = "seqfusion"

// config is the resolved parameter set of one run; a pure function of
// (dataset, engine.Options), shared by Mine, MineShard and MergeShards.
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

// sequenceView materializes the ordered view the sequence algebra needs:
// the dataset's attached sequences when a sequence-format ingestion
// provided them, else the canonical transactions read as ascending
// sequences (the Replace reading: a planted itemset in sorted rows is a
// planted subsequence). The conversion is deterministic, so the view —
// and everything mined from it — remains a pure function of the dataset.
func sequenceView(d *dataset.Dataset) *seq.Dataset {
	rows := d.Sequences()
	seqs := make([]seq.Sequence, d.Size())
	for i := range seqs {
		var row []int
		if rows != nil {
			row = rows[i]
		} else {
			row = d.Transaction(i)
		}
		seqs[i] = seq.Sequence(row)
	}
	return seq.MustNewDataset(seqs)
}

// initPool mines the static candidate pool: every frequent unigram in
// event order, then every frequent contiguous bigram in first-occurrence
// order — every colossal subsequence contains many frequent bigrams, so
// they suffice to seed the balls. On cancellation it returns the partial
// pool and true.
func initPool(ctx context.Context, sd *seq.Dataset, minCount int) ([]*seq.Pattern, bool) {
	var pool []*seq.Pattern
	for e := 0; e < sd.NumEvents(); e++ {
		if ctx.Err() != nil {
			return pool, true
		}
		if sd.EventTIDs(e).Count() < minCount {
			continue
		}
		p := seq.Sequence{e}
		pool = append(pool, &seq.Pattern{Seq: p, TIDs: sd.TIDSet(p)})
	}
	seen := make(map[string]bool)
	for tid := 0; tid < sd.Size(); tid++ {
		if ctx.Err() != nil {
			return pool, true
		}
		s := sd.Seq(tid)
		for i := 0; i+1 < len(s); i++ {
			bi := seq.Sequence{s[i], s[i+1]}
			if seen[bi.Key()] {
				continue
			}
			seen[bi.Key()] = true
			tids := sd.TIDSet(bi)
			if tids.Count() >= minCount {
				pool = append(pool, &seq.Pattern{Seq: bi, TIDs: tids})
			}
		}
	}
	return pool, false
}

// slotResult is one seed slot's contribution: the closure it converged
// to (nil when the slot emitted nothing) and the fusion iterations it
// spent, kept slot-indexed so merges are schedule-independent.
type slotResult struct {
	seq   seq.Sequence
	sup   int
	iters int
}

// mineSlot runs seed-slot trajectory s to its fixed point. Everything it
// reads — the pool, its supports, the dataset — is shared read-only
// state; its RNG is the slot's own pure stream, so the result depends
// only on (sd, pool, cfg, s).
func mineSlot(sd *seq.Dataset, pool []*seq.Pattern, sups []int, cfg config, s int, meter *engine.Meter) slotResult {
	if len(pool) == 0 {
		return slotResult{}
	}
	r := rng.Stream(cfg.seed, uint64(s))
	si := r.Intn(len(pool))
	tids := pool[si].TIDs
	var res slotResult
	for res.iters < cfg.maxIters {
		if meter.Canceled() {
			return res
		}
		res.iters++
		fused := fuseBall(pool, sups, si, tids, cfg, r)
		if fused.Count() == tids.Count() { // fused ⊆ tids: equal counts ⇒ fixed point
			break
		}
		tids = fused
	}
	closure := sd.FoldClosure(tids)
	if len(closure) == 0 || len(closure) < cfg.minSize {
		return res
	}
	ctids := sd.TIDSet(closure)
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
func fuseBall(pool []*seq.Pattern, sups []int, seedIdx int, tids *bitset.Bitset, cfg config, r *rng.RNG) *bitset.Bitset {
	var ball []int
	for pi := range pool {
		if pi == seedIdx {
			continue
		}
		if tids.Distance(pool[pi].TIDs) <= cfg.radius {
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
		nsup := fused.AndCount(pool[pi].TIDs)
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
		fused.InPlaceAnd(pool[pi].TIDs)
		if sups[pi] > maxSup {
			maxSup = sups[pi]
		}
	}
	return fused
}

// mineShardRaw mines seed slots [lo, hi): the raw partial report of the
// Sharder contract — patterns in slot order, unsorted, no warnings, with
// the pool build (the root work) attributed to the lo == 0 shard's
// counters. Cancellation yields the partial slots mined so far with
// Stopped set.
func mineShardRaw(ctx context.Context, d *dataset.Dataset, opts engine.Options, cfg config, lo, hi int) *engine.Report {
	rep := &engine.Report{Algorithm: Name}
	if ctx.Err() != nil {
		rep.Stopped = true
		return rep
	}
	sd := sequenceView(d)
	pool, stopped := initPool(ctx, sd, cfg.minCount)
	if lo == 0 {
		rep.InitPoolSize = len(pool)
	}
	if stopped {
		rep.Stopped = true
		return rep
	}
	meter := engine.NewMeter(ctx, Name, opts.Observer)
	opts.Observer.Emit(engine.Event{Algorithm: Name, Phase: engine.PhaseInitPool, PoolSize: len(pool)})
	sups := make([]int, len(pool))
	for i, p := range pool {
		sups[i] = p.TIDs.Count()
	}
	slots := make([]slotResult, hi-lo)
	rep.Stopped = engine.Tasks(ctx, engine.Workers(opts.Parallelism), hi-lo, func(worker, task int) {
		slots[task] = mineSlot(sd, pool, sups, cfg, lo+task, meter)
		emitted := 0
		if slots[task].seq != nil {
			emitted = 1
		}
		meter.Visit(emitted)
	})
	for i := range slots {
		rep.Iterations += slots[i].iters
		if slots[i].seq == nil {
			continue
		}
		items := append([]int(nil), slots[i].seq...)
		rep.Patterns = append(rep.Patterns, dataset.NewPatternCounted(items, nil, slots[i].sup))
	}
	return rep
}

// mergeRaw combines raw shard parts (in shard order) into the final
// unbracketed report: patterns concatenated in slot order with
// duplicates removed (first slot wins), counters summed, and — for
// completed runs — the Δ quality estimate of the surviving patterns
// against the initial pool. It is a pure function of (d, cfg, parts),
// which is what makes the merge independent of the shard cut.
func mergeRaw(d *dataset.Dataset, cfg config, parts []*engine.Report) *engine.Report {
	res := &engine.Report{}
	seen := make(map[string]bool)
	for _, part := range parts {
		res.InitPoolSize += part.InitPoolSize
		res.Iterations += part.Iterations
		res.Visited += part.Visited
		res.Stopped = res.Stopped || part.Stopped
		for _, p := range part.Patterns {
			key := seq.Sequence(p.Items).Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			res.Patterns = append(res.Patterns, p)
		}
	}
	if !res.Stopped {
		res.Quality = estimateQuality(d, cfg, res.Patterns)
	}
	return res
}

// estimateQuality computes Δ of the mined patterns against the initial
// pool (recomputed from the dataset, so the estimate needs no state
// beyond what every merge site has). Patterns and pool entries are
// compared as their distinct-event itemsets — the algebra quality.Delta
// is defined over. A run with no patterns against a non-empty pool has
// no defined partition, so it carries no estimate.
func estimateQuality(d *dataset.Dataset, cfg config, patterns []*dataset.Pattern) *engine.Quality {
	pool, _ := initPool(context.Background(), sequenceView(d), cfg.minCount)
	q := make([]itemset.Itemset, len(pool))
	for i, p := range pool {
		q[i] = itemset.Canonical(p.Seq)
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
