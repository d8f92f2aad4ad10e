// Package eclat implements the Eclat frequent itemset miner (Zaki's
// equivalence-class vertical approach): a depth-first search over
// item-prefix equivalence classes where each extension's support set is the
// bitset intersection of its parents' TID sets.
//
// Eclat serves as the third independent complete-mining oracle for the
// cross-check tests, and its traversal skeleton is what the closed (charm)
// and maximal miners refine with pruning.
//
// Mining runs on Options.Parallelism workers: the members of the
// first-level equivalence class (the frequent single items) are
// independent subtree roots, so each is one task unit on the shared
// engine.Tasks scheduler, and per-task outputs are merged in task order
// (engine.Concat) — the result is bit-identical for every worker count.
package eclat

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/tidset"
)

// split plans a run at the resolved support threshold: the task units
// are the first-level class members (the frequent single items), whose
// task-order concatenation is the full run. Cancellation is polled on
// ctx at every search node; a canceled run returns the patterns found so
// far with Stopped=true.
func split(ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Plan {
	minCount := opts.ResolveMinCount(d)
	meter := engine.NewMeter(ctx, Name, opts.Observer)

	var class []extension
	for _, item := range d.FrequentItems(minCount) {
		tids := d.ItemTIDs(item)
		class = append(class, extension{item: item, sup: tids.Count(), tids: tids})
	}

	// One task per first-level class member; the shared class slice is
	// read-only across workers (its tidsets are dataset-owned and never
	// pooled).
	scratchOf := engine.PerWorker(opts.Parallelism, func() *scratch {
		return &scratch{pool: tidset.NewPool(d.Size())}
	})
	return &engine.Plan{Root: &engine.Report{}, Units: len(class), Task: func(worker, unit int) *engine.Report {
		sub := &engine.Report{}
		m := &miner{meter: meter, minCount: minCount, maxSize: opts.MaxSize, res: sub, sc: scratchOf(worker)}
		m.searchFrom(nil, class, unit)
		return sub
	}}
}

type extension struct {
	item int
	sup  int // |tids|, carried so class members never recount
	tids *tidset.Set
}

type miner struct {
	meter    *engine.Meter
	minCount int
	maxSize  int // 0 = unbounded
	res      *engine.Report
	sc       *scratch
}

// scratch is the per-worker allocation state: a pool recycling the
// sub-class TID-sets of closed branches, and arenas for the itemset and
// compact TID-set each emitted pattern retains.
type scratch struct {
	pool  *tidset.Pool
	items itemset.Arena
	tids  tidset.Arena
}

// visit records one search node with the meter and latches cancellation
// into the result.
func (m *miner) visit(newPatterns int) bool {
	if m.meter.Visit(newPatterns) {
		m.res.Stopped = true
	}
	return m.res.Stopped
}

// search processes one equivalence class: every member extends prefix by a
// single item. Members are in increasing item order, so each itemset is
// enumerated exactly once.
func (m *miner) search(prefix itemset.Itemset, class []extension) {
	for i := range class {
		m.searchFrom(prefix, class, i)
		if m.res.Stopped {
			return
		}
	}
}

// searchFrom processes the single class member class[i]: it emits the
// extended itemset and recurses into the sub-class formed with the later
// members. It is both the body of search's loop and the unit of parallel
// work (the first-level call decomposes into one searchFrom per frequent
// item).
func (m *miner) searchFrom(prefix itemset.Itemset, class []extension, i int) {
	if m.visit(1) {
		return
	}
	ext := class[i]
	items := m.sc.items.Add(prefix, ext.item)
	m.res.Patterns = append(m.res.Patterns,
		dataset.NewPatternCounted(items, m.sc.tids.CompactClone(ext.tids), ext.sup))
	if m.maxSize > 0 && len(items) >= m.maxSize {
		return
	}
	// Sub-class TID-sets are pooled scratch: intersected in place, handed
	// to the recursion, and recycled when the subtree closes.
	var sub []extension
	for _, other := range class[i+1:] {
		tids := m.sc.pool.Get()
		tids.AndOf(ext.tids, other.tids)
		if c := tids.Count(); c >= m.minCount {
			sub = append(sub, extension{item: other.item, sup: c, tids: tids})
		} else {
			m.sc.pool.Put(tids)
		}
	}
	if len(sub) > 0 {
		m.search(items, sub)
	}
	for _, s := range sub {
		m.sc.pool.Put(s.tids)
	}
}
