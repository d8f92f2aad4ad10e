// Package fpgrowth implements the FP-growth frequent itemset miner of Han,
// Pei & Yin (SIGMOD'00) on top of the FP-tree of package fptree. It mines
// the complete frequent set by recursively building conditional trees, with
// the single-path combination short-circuit.
//
// In this repository FP-growth is a baseline and an independent oracle: the
// cross-check tests require Apriori, FP-growth and Eclat to produce
// identical complete sets on randomized databases.
//
// Mining runs on Options.Parallelism workers: each header item of the
// root FP-tree seeds an independent conditional tree, so the root items
// are the task units on the shared engine.Tasks scheduler — the same
// decomposition parallel FP-growth implementations use. Per-task itemsets
// merge in task order (engine.Concat) before the canonical sort, so the
// result is bit-identical for every worker count.
package fpgrowth

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fptree"
	"repro/internal/itemset"
)

// split plans a run at the resolved support threshold: the root work is
// building the FP-tree, and the task units are its header items — the
// roots of the conditional trees — or one unit for a single-path root.
// Cancellation is polled on ctx at every conditional-tree node; a
// canceled run returns the itemsets found so far with Stopped=true.
func split(ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Plan {
	minCount := opts.ResolveMinCount(d)
	tree := fptree.Build(d, minCount)
	meter := engine.NewMeter(ctx, Name, opts.Observer)
	newMiner := func(res *engine.Report) *miner {
		return &miner{meter: meter, minCount: minCount, maxSize: opts.MaxSize, res: res}
	}

	if path := tree.SinglePath(); path != nil {
		// Degenerate root: all patterns are sub-combinations of one chain.
		return &engine.Plan{Root: &engine.Report{}, Units: 1, Task: func(_, _ int) *engine.Report {
			rep := &engine.Report{}
			m := newMiner(rep)
			if !m.visit(0) {
				m.combinations(path, nil)
			}
			return rep
		}}
	}
	// One task per root header item; the shared parent tree is read-only
	// across workers.
	items := tree.Items()
	return &engine.Plan{Root: &engine.Report{}, Units: len(items), Task: func(_, unit int) *engine.Report {
		sub := &engine.Report{}
		newMiner(sub).growFrom(tree, nil, items[unit])
		return sub
	}}
}

type miner struct {
	meter    *engine.Meter
	minCount int
	maxSize  int // 0 = unbounded
	res      *engine.Report
}

// visit records one conditional-tree node with the meter and latches
// cancellation into the result.
func (m *miner) visit(newPatterns int) bool {
	if m.meter.Visit(newPatterns) {
		m.res.Stopped = true
	}
	return m.res.Stopped
}

func (m *miner) emit(items itemset.Itemset, count int) {
	if m.maxSize > 0 && len(items) > m.maxSize {
		return
	}
	m.meter.Emitted(1)
	m.res.Patterns = append(m.res.Patterns, dataset.NewPatternCounted(items, nil, count))
}

// grow mines tree conditioned on suffix (the itemset accumulated so far).
func (m *miner) grow(tree *fptree.Tree, suffix itemset.Itemset) {
	if m.visit(0) {
		return
	}
	if m.maxSize > 0 && len(suffix) >= m.maxSize {
		return
	}
	if path := tree.SinglePath(); path != nil {
		m.combinations(path, suffix)
		return
	}
	for _, item := range tree.Items() {
		m.growFrom(tree, suffix, item)
		if m.res.Stopped {
			return
		}
	}
}

// growFrom mines the single header item of tree: it emits suffix ∪ {item}
// and recurses into item's conditional tree. It is both the body of grow's
// loop and the unit of parallel work (the root tree decomposes into one
// growFrom per header item).
func (m *miner) growFrom(tree *fptree.Tree, suffix itemset.Itemset, item int) {
	if m.visit(0) {
		return
	}
	count := tree.Counts[item]
	if count < m.minCount {
		return
	}
	newSuffix := suffix.Add(item)
	m.emit(newSuffix, count)
	if m.maxSize > 0 && len(newSuffix) >= m.maxSize {
		return
	}
	cond := tree.ConditionalTree(item, m.minCount)
	if !cond.Empty() {
		m.grow(cond, newSuffix)
	}
}

// combinations emits suffix ∪ S for every non-empty subset S of the single
// path, with support equal to the count of the deepest node of S.
func (m *miner) combinations(path []*fptree.Node, suffix itemset.Itemset) {
	n := len(path)
	limit := n
	if m.maxSize > 0 {
		budget := m.maxSize - len(suffix)
		if budget < limit {
			limit = budget
		}
	}
	if limit <= 0 {
		return
	}
	// Depth-first subset enumeration keeping track of the minimum count
	// (counts are non-increasing along the path, so the deepest chosen node
	// has the minimum).
	var rec func(start int, chosen itemset.Itemset)
	rec = func(start int, chosen itemset.Itemset) {
		for i := start; i < n; i++ {
			next := chosen.Add(path[i].Item)
			m.emit(suffix.Union(next), path[i].Count)
			if len(next) < limit {
				rec(i+1, next)
			}
		}
	}
	rec(0, nil)
}
