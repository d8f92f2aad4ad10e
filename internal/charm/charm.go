// Package charm mines the complete set of closed frequent itemsets
// (Definition 2 of the paper): frequent patterns with no super-pattern of
// identical support set.
//
// It stands in for the FPClose/LCM(closed)/CHARM family the paper uses to
// build complete answer sets. The enumeration is the prefix-preserving
// closure extension (ppc-ext) of LCM (Uno et al., FIMI'04): from a closed
// set C, extend with an item i greater than the previous core item, compute
// the closure of C ∪ {i}, and keep the branch only if the closure agrees
// with C on all items below i. Each closed set is generated exactly once,
// with no global duplicate table, in time polynomial per closed set.
//
// In the reproduction this miner builds the "complete set Q" that the
// quality evaluation model (Section 5) compares Pattern-Fusion's result
// against on the Replace dataset (Figure 8).
//
// Mining runs on Options.Parallelism workers: ppc-ext carries no state
// across sibling branches, so each single-item extension of the root
// closure is an independent subtree and one task unit on the shared
// engine.Tasks scheduler. Per-task patterns and visit counts merge in
// task order (engine.Concat) — the result is bit-identical for every
// worker count.
//
// Allocation discipline: every branch TID-set is a pooled scratch set
// (computed in place with AndOf, returned to the worker's pool when the
// branch closes), closures come out of the vertical dataset.Closer (column
// containment tests) instead of an Intersect chain over the rows, and the
// itemsets and TID-sets a pattern retains are carved from per-worker
// arenas. The per-node cost is O(1) amortized allocations instead of one
// tidset + one itemset chain per node.
package charm

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/tidset"
)

// split plans a run at the resolved support threshold: the root extend
// node is the root work, and the task units are the root closure's
// candidate extension items, none when the threshold exceeds the rows.
// Cancellation is polled on ctx at every search node; a canceled run
// returns the patterns found so far with Stopped=true.
func split(ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Plan {
	minCount := opts.ResolveMinCount(d)
	if d.Size() < minCount {
		return &engine.Plan{Root: &engine.Report{}}
	}
	meter := engine.NewMeter(ctx, Name, opts.Observer)
	newMiner := func(res *engine.Report, sc *scratch) *miner {
		return &miner{meter: meter, d: d, minCount: minCount, minSize: opts.MinSize, res: res, sc: sc}
	}

	all := tidset.Full(d.Size())
	c0 := d.Closure(nil)
	root := newMiner(&engine.Report{}, newScratch(d))
	root.res.Visited++
	root.emit(c0, all, d.Size())
	// Task unit i is the ppc-ext subtree of candidate extension item i,
	// explored independently (all and the item TID sets are read-only).
	// Pools, closer and arenas live per worker, not per task: scratch
	// reuse changes allocation, never values, so determinism is
	// preserved.
	scratchOf := engine.PerWorker(opts.Parallelism, func() *scratch { return newScratch(d) })
	return &engine.Plan{Root: root.res, Units: d.NumItems(), Task: func(worker, unit int) *engine.Report {
		sub := &engine.Report{}
		newMiner(sub, scratchOf(worker)).extendFrom(c0, all, unit)
		return sub
	}}
}

type miner struct {
	meter    *engine.Meter
	d        *dataset.Dataset
	minCount int
	minSize  int
	res      *engine.Report
	sc       *scratch
}

// scratch is the per-worker allocation state: a pool of branch TID-sets, a
// vertical closure computer, and arenas for the itemsets and TID-sets that
// emitted patterns retain.
type scratch struct {
	pool   *tidset.Pool
	closer *dataset.Closer
	items  itemset.Arena
	tids   tidset.Arena
}

func newScratch(d *dataset.Dataset) *scratch {
	return &scratch{pool: tidset.NewPool(d.Size()), closer: dataset.NewCloser(d)}
}

// visit records one search node with the meter and latches cancellation
// into the result.
func (m *miner) visit(newPatterns int) bool {
	if m.meter.Visit(newPatterns) {
		m.res.Stopped = true
	}
	return m.res.Stopped
}

// emit records the closed set c, whose support set tids (with |tids| = sup)
// the enumeration already holds — D_c equals the branch's tidset because a
// closure has the identical support set, so no TIDSet recomputation is
// needed. tids is a pooled scratch set the branch will recycle, so the
// pattern retains an arena-carved compact copy (which also re-picks the
// representation for the now-known cardinality).
func (m *miner) emit(c itemset.Itemset, tids *tidset.Set, sup int) {
	if len(c) == 0 || len(c) < m.minSize {
		return
	}
	m.meter.Emitted(1)
	m.res.Patterns = append(m.res.Patterns, dataset.NewPatternCounted(c, m.sc.tids.CompactClone(tids), sup))
}

// extend explores all prefix-preserving closure extensions of the closed
// set c (with support set tids) using items greater than core.
func (m *miner) extend(c itemset.Itemset, tids *tidset.Set, core int) {
	if m.visit(0) {
		return
	}
	m.res.Visited++
	for i := core + 1; i < m.d.NumItems(); i++ {
		m.extendFrom(c, tids, i)
		if m.res.Stopped {
			return
		}
	}
}

// extendFrom tries the single extension item i of the closed set c: if the
// extension is frequent and its closure passes the ppc-ext canonicity
// test, the closure is emitted and its subtree explored. It is both the
// body of extend's loop and the unit of parallel work (the root call
// decomposes into one extendFrom per item).
func (m *miner) extendFrom(c itemset.Itemset, tids *tidset.Set, i int) {
	if c.Contains(i) {
		return
	}
	sub := m.sc.pool.Get()
	sub.AndOf(tids, m.d.ItemTIDs(i))
	sup := sub.Count()
	if sup < m.minCount {
		m.sc.pool.Put(sub)
		return
	}
	// The closer returns its reusable buffer; the branch needs a stable
	// copy for the recursion (and the emitted pattern), carved from the
	// worker's itemset arena.
	cc := m.sc.closer.Closure(sub)
	if !prefixPreserved(c, cc, i) {
		m.sc.pool.Put(sub)
		return
	}
	cc = m.sc.items.Copy(cc)
	m.emit(cc, sub, sup)
	m.extend(cc, sub, i)
	m.sc.pool.Put(sub)
}

// prefixPreserved reports whether the closure cc introduces no item below i
// that was not already in c — the ppc-ext canonicity test.
func prefixPreserved(c, cc itemset.Itemset, i int) bool {
	for _, v := range cc {
		if v >= i {
			break
		}
		if !c.Contains(v) {
			return false
		}
	}
	return true
}

// IsClosed reports whether alpha is closed in d: no single-item extension
// preserves its support set. (Utility for tests and the quality harness.)
func IsClosed(d *dataset.Dataset, alpha itemset.Itemset) bool {
	tids := d.TIDSet(alpha)
	if tids.Empty() {
		return false
	}
	return dataset.NewCloser(d).Closure(tids).Equal(alpha)
}
