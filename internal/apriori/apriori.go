// Package apriori implements the level-wise frequent itemset miner of
// Agrawal & Srikant (VLDB'94), one of the baseline "incremental
// pattern-growth" strategies the paper contrasts Pattern-Fusion with.
//
// Besides serving as a baseline and a cross-check oracle, Apriori plays a
// structural role in the reproduction: phase 1 of Pattern-Fusion assumes
// "an initial pool of small frequent patterns, which is the complete set of
// frequent patterns up to a small size, e.g., 3" (Section 2.3) — that pool
// is mined here with InitialPool.
//
// Support counting uses the dataset's vertical representation: the tidset of
// a (k)-candidate is the intersection of a (k−1)-parent's tidset with one
// item tidset, so each level costs one intersection per candidate. Candidate
// generation is allocation-lean: the prune index is keyed by 128-bit
// itemset fingerprints, the subset-check buffer is reused across
// candidates, and emitted patterns carry their support count memoized.
//
// Each level's candidate generation runs on Options.Parallelism workers:
// the sorted k-level is cut into contiguous candidate-range chunks, one
// task unit each on the shared engine.Tasks scheduler (chunks read the
// level and the fingerprint prune index read-only), and per-chunk
// survivor slices are concatenated in chunk order — exactly the
// sequential generation order, so the result is bit-identical for every
// worker count. Cancellation keeps its level cadence: a run canceled
// mid-level reports the completed levels only.
package apriori

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/tidset"
)

// InitialPool returns the complete set of frequent patterns of d with
// support count at least minCount and at most maxSize items, in level
// order — Pattern-Fusion's phase-1 pool. It is the raw level-wise search,
// deliberately outside engine.Run: fusion's seed draws index the pool in
// exactly this order, and the pool build emits no progress events of its
// own. A canceled run returns the completed levels and true.
func InitialPool(ctx context.Context, d *dataset.Dataset, minCount, maxSize, parallelism int) ([]*dataset.Pattern, bool) {
	rep := search(ctx, d, minCount, maxSize, parallelism, nil)
	return rep.Patterns, rep.Stopped
}

// search runs Apriori at the resolved threshold minCount (≥ 1), stopping
// after level maxSize (0 = unbounded). Patterns come out level by level;
// Iterations counts the completed levels, each announced to obs.
// Cancellation is polled on ctx once per level; a canceled run returns
// the levels completed so far with Stopped=true.
func search(ctx context.Context, d *dataset.Dataset, minCount, maxSize, parallelism int, obs engine.Observer) *engine.Report {
	rep := &engine.Report{}

	// L1: frequent single items.
	var level []*dataset.Pattern
	for _, item := range d.FrequentItems(minCount) {
		level = append(level, dataset.NewPatternTIDs(
			itemset.Itemset{item}, d.ItemTIDs(item).Clone()))
	}
	for len(level) > 0 {
		rep.Patterns = append(rep.Patterns, level...)
		rep.Iterations++
		obs.Emit(engine.Event{
			Algorithm: Name, Phase: engine.PhaseIteration,
			Iteration: rep.Iterations, PoolSize: len(rep.Patterns),
		})
		if maxSize > 0 && rep.Iterations >= maxSize {
			break
		}
		if ctx.Err() != nil {
			rep.Stopped = true
			break
		}
		var stopped bool
		level, stopped = nextLevel(ctx, d, level, minCount, parallelism)
		if stopped {
			// Canceled mid-level: keep the complete levels only, so a
			// partial report never contains a torn level.
			rep.Stopped = true
			break
		}
	}
	return rep
}

// nextLevel generates and counts the (k+1)-candidates from the frequent
// k-level using the classic join + prune steps. The level is kept in
// lexicographic order, which the prefix join relies on. The frequency index
// is keyed by itemset fingerprint and the prune-check subset buffer is
// reused across candidates, so a level's candidate generation allocates
// only for the surviving patterns.
//
// A candidate's TID-set is its parent a's intersected with one item column.
// When both are sparse, the intersection probes the column's elements
// against a dense copy of a, written once per parent on its first such
// join, instead of merging two sorted arrays. The result is the same
// sparse set, element for element.
//
// The level is cut into contiguous candidate-range chunks dealt to the
// engine.Tasks scheduler (the level slice and the fingerprint index are
// read-only); per-chunk survivors concatenate in chunk order, which is the
// sequential generation order. A canceled level returns stopped=true and
// its partial output is discarded by the caller.
func nextLevel(ctx context.Context, d *dataset.Dataset, level []*dataset.Pattern, minCount, parallelism int) (next []*dataset.Pattern, stopped bool) {
	// Membership index for the subset-pruning step.
	freq := make(map[itemset.Fingerprint]bool, len(level))
	for _, p := range level {
		freq[p.Items.Fingerprint()] = true
	}

	workers := engine.Workers(parallelism)
	chunks := chunkRanges(len(level), workers)
	perChunk := make([][]*dataset.Pattern, len(chunks))
	stopped = engine.Tasks(ctx, workers, len(chunks), func(_, task int) {
		lo, hi := chunks[task][0], chunks[task][1]
		out := make([]*dataset.Pattern, 0, hi-lo)
		// Candidates that fail the prune or the support check allocate
		// nothing: the candidate itemset and its tidset live in reusable
		// scratch buffers, and only survivors get detached — onto worker
		// arenas, so even a retained pattern costs amortized well under
		// one allocation for each of its two payloads.
		var (
			buf, cand itemset.Itemset
			items     itemset.Arena
			tids      tidset.Arena
			scratch   = tidset.New(d.Size())
			mirror    = tidset.New(d.Size())
		)
		for i := lo; i < hi; i++ {
			a := level[i]
			k := len(a.Items)
			mirrored := false
			for j := i + 1; j < len(level); j++ {
				b := level[j]
				// Join step: a and b must share the first k−1 items; because
				// the level is lexicographically sorted, once prefixes
				// diverge no later j can match.
				if !samePrefix(a.Items, b.Items) {
					break
				}
				// b's last item sorts after a's (shared prefix, sorted
				// level), so appending keeps the candidate canonical.
				cand = append(append(cand[:0], a.Items...), b.Items[k-1])
				// Prune step: every k-subset of cand must be frequent. The
				// two subsets obtained by removing the last two items are a
				// and b themselves, so check only the others.
				if !allSubsetsFrequent(cand, freq, &buf) {
					continue
				}
				col, parent := d.ItemTIDs(b.Items[k-1]), a.TIDs
				if !parent.IsDense() && !col.IsDense() {
					if !mirrored {
						mirror.DenseCopyFrom(parent)
						mirrored = true
					}
					parent = mirror
				}
				scratch.AndOf(parent, col)
				if c := scratch.Count(); c >= minCount {
					out = append(out, dataset.NewPatternCounted(
						items.Copy(cand), tids.CompactClone(scratch), c))
				}
			}
		}
		perChunk[task] = out
	})
	if stopped {
		return nil, true
	}
	next = make([]*dataset.Pattern, 0, len(level))
	for _, out := range perChunk {
		next = append(next, out...)
	}
	return next, false
}

// chunkRanges cuts [0, n) into up to 4·workers contiguous [lo, hi) ranges
// of near-equal size — enough surplus for the scheduler to rebalance the
// skewed join fan-outs of a sorted level. The chunk count never depends on
// the outputs, and concatenating chunk results in order is independent of
// the cut points, so chunking cannot influence the mined patterns.
func chunkRanges(n, workers int) [][2]int {
	if n == 0 {
		return nil
	}
	chunks := 4 * workers
	if chunks > n {
		chunks = n
	}
	out := make([][2]int, chunks)
	for c := 0; c < chunks; c++ {
		out[c] = [2]int{c * n / chunks, (c + 1) * n / chunks}
	}
	return out
}

func samePrefix(a, b itemset.Itemset) bool {
	k := len(a)
	for i := 0; i < k-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsFrequent(cand itemset.Itemset, freq map[itemset.Fingerprint]bool, scratch *itemset.Itemset) bool {
	n := len(cand)
	if cap(*scratch) < n {
		*scratch = make(itemset.Itemset, 0, n)
	}
	buf := *scratch
	// Skip the two subsets missing the last or second-to-last item: they are
	// the join parents and known frequent.
	for drop := 0; drop < n-2; drop++ {
		buf = buf[:0]
		for i, v := range cand {
			if i != drop {
				buf = append(buf, v)
			}
		}
		if !freq[buf.Fingerprint()] {
			return false
		}
	}
	return true
}
