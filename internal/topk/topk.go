// Package topk mines the top-k most frequent closed itemsets with a minimum
// length constraint — the TFP algorithm of Wang, Han, Lu & Tzvetkov (TKDE
// 2005), the third baseline of the paper's Figure 10.
//
// TFP starts with no (or a floor) support threshold and raises it
// dynamically: once k closed patterns of length ≥ MinSize are in hand, the
// internal threshold becomes the k-th best support, pruning everything that
// can no longer enter the answer. The closed enumeration reuses the
// prefix-preserving closure extension of package charm, but visits
// extensions in descending support order so the threshold rises fast.
//
// The answer set is defined by a total order on patterns — support
// descending, then size descending, then lexicographic — so which k
// patterns are "best" never depends on discovery order. That makes the
// search parallelizable without changing the answer: each first-level
// extension of the root closure is one task unit on the shared
// engine.Tasks scheduler, every task raises a task-local
// threshold from its own discoveries (sound: a task's k-th best support
// never exceeds the global one), and the ≤ k survivors per task merge
// under the same total order. Both the merged answer and the per-task
// visit counts are pure functions of (dataset, engine.Options), so the
// result is bit-identical for every worker count. The price is that
// sibling subtrees do not share their raised thresholds within one run.
package topk

import (
	"container/heap"
	"context"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/tidset"
)

// split plans a run for the top k closed patterns of at least
// opts.MinSize items, never descending below the support floor (≥ 1).
// The root node is the root work and its candidate extensions are the
// task units. The plan's Merge re-selects the top k in better() order,
// which is strict on distinct closed patterns, so the top-k of per-range
// top-ks is the global top-k. Cancellation is polled on ctx at every
// search node; a canceled run returns the best patterns found so far
// with Stopped=true.
func split(ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Plan {
	k, floor := resolve(d, opts)
	if d.Size() < floor {
		return &engine.Plan{Root: &engine.Report{}}
	}
	meter := engine.NewMeter(ctx, Name, opts.Observer)
	newMiner := func(minCount int, sc *scratch) *miner {
		return &miner{meter: meter, d: d, k: k, minSize: opts.MinSize, minCount: minCount, sc: sc}
	}

	all := tidset.Full(d.Size())
	c0 := d.Closure(nil)

	// The root node: offer the root closure, gather its extension
	// candidates, and order them by descending support — the candidate
	// order is both the sequential visit order and the parallel task
	// order. The root's candidate tidsets come from the root scratch pool
	// and are deliberately never recycled — the tasks keep reading them
	// for the whole run.
	root := newMiner(floor, newScratch(d))
	root.offer(c0, all)
	cands := root.candidates(c0, all, -1)

	// Every task seeds its threshold with the root's (deterministic)
	// post-root value and raises it only from its own subtree, so its
	// pruning — and visit count — is a pure function of the task alone.
	// ppc-ext generates each closed pattern exactly once across the whole
	// tree, so the union of the root's and the per-task heaps has no
	// duplicates; the top k under the total order are the answer.
	base := root.minCount
	scratchOf := engine.PerWorker(opts.Parallelism, func() *scratch { return newScratch(d) })
	return &engine.Plan{
		Root:  &engine.Report{Patterns: root.heap, Visited: 1},
		Units: len(cands),
		Task: func(worker, unit int) *engine.Report {
			m := newMiner(base, scratchOf(worker))
			m.extendFrom(c0, cands[unit])
			return &engine.Report{Patterns: m.heap, Visited: m.visited, Stopped: m.stopped}
		},
		Merge: func(parts []*engine.Report) *engine.Report {
			rep := engine.Concat(parts)
			rep.Patterns = topK(rep.Patterns, k)
			return rep
		},
	}
}

// topK sorts distinct closed patterns into better() order and keeps the
// best k.
func topK(ps []*dataset.Pattern, k int) []*dataset.Pattern {
	sort.Slice(ps, func(i, j int) bool { return better(ps[i], ps[j]) })
	if len(ps) > k {
		ps = ps[:k]
	}
	return ps
}

// better is the strict total order defining the answer set: higher
// support first, then larger patterns, then lexicographically smaller
// itemsets. Distinct closed patterns always compare strictly, so the
// top-k under this order is independent of discovery order.
func better(a, b *dataset.Pattern) bool {
	return betterThan(a.Support(), a.Items, b)
}

// betterThan reports whether a pattern with the given support and itemset
// would rank above b under the better() total order, without constructing
// the pattern.
func betterThan(sup int, items itemset.Itemset, b *dataset.Pattern) bool {
	if sb := b.Support(); sup != sb {
		return sup > sb
	}
	if len(items) != len(b.Items) {
		return len(items) > len(b.Items)
	}
	return itemset.Compare(items, b.Items) < 0
}

type miner struct {
	meter    *engine.Meter
	d        *dataset.Dataset
	k        int
	minSize  int
	minCount int // the internal threshold, raised as the heap fills
	visited  int
	stopped  bool
	sc       *scratch
	heap     patternHeap // min-heap under better() of the current best ≤ K qualifying patterns
}

// scratch is the per-worker allocation state: a pool recycling candidate
// TID-sets of closed branches and a vertical closure computer. Heap
// entries use GC-owned compact clones, not an arena — evicted patterns
// must be collectable, and the heap holds at most K survivors.
type scratch struct {
	pool   *tidset.Pool
	closer *dataset.Closer
}

func newScratch(d *dataset.Dataset) *scratch {
	return &scratch{pool: tidset.NewPool(d.Size()), closer: dataset.NewCloser(d)}
}

// visit records one search node with the meter and latches cancellation.
func (m *miner) visit() bool {
	if m.meter.Visit(0) {
		m.stopped = true
	}
	return m.stopped
}

// offer considers a closed pattern for the top-k answer and raises the
// internal threshold when the answer set is full. c must be stable
// (cloned out of any reusable closure buffer); tids may be pooled scratch
// — the heap entry keeps a compact clone.
func (m *miner) offer(c itemset.Itemset, tids *tidset.Set) {
	if len(c) < m.minSize || len(c) == 0 {
		return
	}
	sup := tids.Count()
	if len(m.heap) == m.k && !betterThan(sup, c, m.heap[0]) {
		return
	}
	m.meter.Emitted(1)
	heap.Push(&m.heap, dataset.NewPatternCounted(c, tids.CompactClone(), sup))
	if len(m.heap) > m.k {
		heap.Pop(&m.heap)
	}
	if len(m.heap) == m.k {
		if t := m.heap[0].Support(); t > m.minCount {
			m.minCount = t
		}
	}
}

// cand is one frequent single-item extension of a closed set.
type cand struct {
	item int
	sub  *tidset.Set
	sup  int
}

// candidates gathers the frequent extensions of the closed set c (support
// set tids) with items greater than core, ordered by descending support so
// high-support branches are visited first and the threshold rises fast.
// The candidate tidsets are pooled scratch sets; the caller recycles them
// when it is done with the list.
func (m *miner) candidates(c itemset.Itemset, tids *tidset.Set, core int) []cand {
	var cands []cand
	for i := core + 1; i < m.d.NumItems(); i++ {
		if c.Contains(i) {
			continue
		}
		sub := m.sc.pool.Get()
		sub.AndOf(tids, m.d.ItemTIDs(i))
		if sup := sub.Count(); sup >= m.minCount {
			cands = append(cands, cand{item: i, sub: sub, sup: sup})
		} else {
			m.sc.pool.Put(sub)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].sup != cands[b].sup {
			return cands[a].sup > cands[b].sup
		}
		return cands[a].item < cands[b].item
	})
	return cands
}

// extendFrom tries the single candidate extension cd of the closed set c:
// if it still beats the (possibly raised) threshold and its closure passes
// the ppc-ext canonicity test, the closure is offered and its subtree
// explored. It is both the body of extend's loop and the unit of parallel
// work (the root's candidates become the tasks).
func (m *miner) extendFrom(c itemset.Itemset, cd cand) {
	// The threshold may have risen since the candidate was gathered.
	if cd.sup < m.minCount {
		return
	}
	cc := m.sc.closer.Closure(cd.sub)
	if !prefixPreserved(c, cc, cd.item) {
		return
	}
	// The closer returns its reusable buffer; the heap entry and the
	// recursion both need a stable copy.
	cc = cc.Clone()
	m.offer(cc, cd.sub)
	m.extend(cc, cd.sub, cd.item)
}

// extend is the ppc-ext closed enumeration with dynamic threshold raising.
func (m *miner) extend(c itemset.Itemset, tids *tidset.Set, core int) {
	if m.visit() {
		return
	}
	m.visited++
	cands := m.candidates(c, tids, core)
	for _, cd := range cands {
		m.extendFrom(c, cd)
		if m.stopped {
			break
		}
	}
	for _, cd := range cands {
		m.sc.pool.Put(cd.sub)
	}
}

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

// patternHeap is a min-heap under better(): the root is the worst of the
// current candidate answers, evicted first when the heap overflows K.
type patternHeap []*dataset.Pattern

// Len implements heap.Interface.
func (h patternHeap) Len() int { return len(h) }

// Less implements heap.Interface: h[i] sorts before h[j] when it is the
// worse pattern under the better() total order.
func (h patternHeap) Less(i, j int) bool { return better(h[j], h[i]) }

// Swap implements heap.Interface.
func (h patternHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *patternHeap) Push(x interface{}) { *h = append(*h, x.(*dataset.Pattern)) }

// Pop implements heap.Interface.
func (h *patternHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
