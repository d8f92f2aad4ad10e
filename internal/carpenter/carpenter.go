// Package carpenter mines closed frequent itemsets by row (transaction-set)
// enumeration, the approach of CARPENTER (Pan, Cong, Tung, Yang, Zaki,
// KDD'03) designed for "long" biological datasets with few rows and very
// many columns — exactly the shape of the paper's ALL microarray dataset
// (38 samples × 1,736 genes).
//
// Instead of growing itemsets, the search enumerates subsets R of rows in
// depth-first order, maintaining the intersection X = ∩_{r∈R} r of their
// transactions. A set R with |R| ≥ minCount whose intersection is contained
// in no row outside R yields the closed pattern X with support |R|. Three
// classic prunings keep the search feasible:
//
//  1. remaining-rows bound: if |R| plus the rows still available cannot
//     reach minCount, backtrack;
//  2. free-row absorption: any later row containing X can be added to R
//     without changing X, so all such rows are absorbed at once;
//  3. canonicity: if a *skipped* earlier row contains X, this closed set is
//     (or will be) found on the branch that includes that row — backtrack.
//
// A minimum-size constraint on |X| is pushed into the search (intersections
// only shrink as rows are added), which is what makes "all closed patterns
// of size ≥ 70" on the microarray dataset computable for Figure 9.
//
// Mining runs on Options.Parallelism workers: the dispatcher expands the
// row-enumeration tree to a fixed depth (spawnDepth) and every frontier
// subtree — a pending row-set extension with its snapshot of the
// intersection and row-membership state — is one task unit on the shared
// engine.Tasks scheduler. Depth two yields hundreds of tasks even on a
// 38-row microarray, which is what lets the workers balance the heavily
// skewed first-row subtrees. Patterns emitted above the frontier merge
// before the per-task outputs in task order; every stage is
// deterministic, so the result is bit-identical for every worker count.
package carpenter

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/tidset"
)

// spawnDepth is the row-enumeration depth at which the dispatcher stops
// expanding and hands subtrees to the scheduler. It is a constant — never
// derived from the worker count — so the task decomposition, and with it
// the emission order and visit counts, is identical for every
// Parallelism value.
const spawnDepth = 2

// split plans a run for the closed patterns of at least opts.MinSize
// items at the resolved support threshold. The root work is the
// deterministic dispatcher expansion: its own output — the
// above-frontier patterns and visit counts — is the plan's Root, and its
// frontier subtrees are the task units, none for the degenerate empty
// run. Cancellation is polled on ctx at every search node; a canceled
// run returns the patterns found so far with Stopped=true.
func split(ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Plan {
	minCount, minSize := opts.ResolveMinCount(d), opts.MinSize
	n := d.Size()
	if n < minCount {
		return &engine.Plan{Root: &engine.Report{}}
	}
	meter := engine.NewMeter(ctx, Name, opts.Observer)
	// The dispatcher miner holds the row item-bitsets every task reads.
	root := &miner{meter: meter, d: d, minCount: minCount, minSize: minSize, res: &engine.Report{},
		n: n, rows: make([]*bitset.Bitset, n), inSet: make([]bool, n)}
	for i := range root.rows {
		root.rows[i] = bitset.New(d.NumItems())
		for _, item := range d.Transaction(i) {
			root.rows[i].Set(item)
		}
	}
	full := bitset.New(d.NumItems())
	full.SetAll()

	// The dispatcher expands the tree down to spawnDepth, collecting every
	// frontier subtree as a task (each with its own intersection bitset
	// and row-membership snapshot), then the scheduler runs the subtrees.
	// A dispatcher canceled mid-expansion leaves a truncated task list
	// and a Stopped root.
	var tasks []frontierTask
	root.spawn = func(rsize int, x *bitset.Bitset, next int) {
		tasks = append(tasks, frontierTask{
			// x is a freelist buffer the dispatcher will recycle: the task
			// snapshot needs its own copy.
			rsize: rsize, x: x.Clone(), next: next,
			inSet: append([]bool(nil), root.inSet...),
		})
	}
	root.enumerate(0, full, 0, 0)

	return &engine.Plan{Root: root.res, Units: len(tasks), Task: func(_, unit int) *engine.Report {
		ft := tasks[unit]
		sub := &miner{meter: meter, d: d, minCount: minCount, minSize: minSize, res: &engine.Report{},
			n: n, rows: root.rows, inSet: ft.inSet}
		sub.enumerate(ft.rsize, ft.x, ft.next, spawnDepth)
		return sub.res
	}}
}

// frontierTask is one pending enumerate call at spawnDepth: the arguments
// of the suspended recursion plus a private copy of the row-membership
// state on its path.
type frontierTask struct {
	rsize int
	x     *bitset.Bitset
	next  int
	inSet []bool
}

type miner struct {
	meter    *engine.Meter
	d        *dataset.Dataset
	minCount int
	minSize  int
	res      *engine.Report
	n        int
	rows     []*bitset.Bitset
	inSet    []bool // inSet[r] = row r is in the current row set
	// free recycles intersection bitsets: one buffer per recursion depth in
	// steady state instead of one allocation per explored branch.
	free []*bitset.Bitset
	// spawn, when non-nil, intercepts recursion at spawnDepth: the
	// dispatcher collects the pending call as a task instead of descending.
	spawn func(rsize int, x *bitset.Bitset, next int)
}

// grabX returns a reusable intersection buffer over item IDs.
func (m *miner) grabX() *bitset.Bitset {
	if k := len(m.free); k > 0 {
		b := m.free[k-1]
		m.free = m.free[:k-1]
		return b
	}
	return bitset.New(m.d.NumItems())
}

// visit records one search node with the meter and latches cancellation
// into the result.
func (m *miner) visit() bool {
	if m.meter.Visit(0) {
		m.res.Stopped = true
	}
	return m.res.Stopped
}

// enumerate explores row sets extending the current set (membership in
// m.inSet, size rsize) whose intersection is x. Rows in [next, n) are still
// available; rows below next are either members or permanently skipped on
// this branch. depth counts recursion levels below the task's entry point
// for the dispatcher's frontier cut.
func (m *miner) enumerate(rsize int, x *bitset.Bitset, next, depth int) {
	if m.spawn != nil && depth == spawnDepth {
		m.spawn(rsize, x, next)
		return
	}
	if m.visit() {
		return
	}
	m.res.Visited++

	// Pruning 3 (canonicity): a skipped earlier row containing x means this
	// row set is not the canonical generator of the closed pattern x.
	for r := 0; r < next; r++ {
		if !m.inSet[r] && x.SubsetOf(m.rows[r]) {
			return
		}
	}

	// Pruning 2 (free-row absorption): later rows containing x join for free.
	// Rows already in the set (absorbed by an ancestor at an index ≥ next)
	// are members and must not be double-counted.
	var absorbed, rest []int
	for r := next; r < m.n; r++ {
		if m.inSet[r] {
			continue
		}
		if x.SubsetOf(m.rows[r]) {
			absorbed = append(absorbed, r)
			m.inSet[r] = true
		} else {
			rest = append(rest, r)
		}
	}
	defer func() {
		for _, r := range absorbed {
			m.inSet[r] = false
		}
	}()
	rsize += len(absorbed)

	// After absorption the current set holds *every* row containing x, so x
	// is closed with support rsize.
	if rsize >= m.minCount && !x.Empty() && x.Count() >= m.minSize {
		m.emit(x, rsize)
	}

	for i, r := range rest {
		// Pruning 1: can the remaining rows still reach minCount?
		if rsize+len(rest)-i < m.minCount {
			return
		}
		nx := m.grabX()
		nx.AndOf(x, m.rows[r])
		// Min-size pruning: intersections only shrink as rows are added.
		// One popcount serves both the emptiness and the min-size test.
		if c := nx.Count(); c == 0 || c < m.minSize {
			m.free = append(m.free, nx)
			continue
		}
		m.inSet[r] = true
		m.enumerate(rsize+1, nx, r+1, depth+1)
		m.inSet[r] = false
		m.free = append(m.free, nx)
		if m.res.Stopped {
			return
		}
	}
}

func (m *miner) emit(x *bitset.Bitset, support int) {
	items := itemset.Itemset(x.Indices())
	rows := make([]int, 0, support)
	for r := 0; r < m.n; r++ {
		if m.inSet[r] {
			rows = append(rows, r)
		}
	}
	if len(rows) != support {
		panic("carpenter: internal row-set bookkeeping error")
	}
	m.meter.Emitted(1)
	m.res.Patterns = append(m.res.Patterns,
		dataset.NewPatternCounted(items, tidset.FromIndices(m.n, rows), support))
}
