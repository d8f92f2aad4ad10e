// Package maximal mines the complete set of maximal frequent itemsets:
// frequent patterns with no frequent super-pattern.
//
// It is this repository's stand-in for LCM_maximal, the FIMI'04 winner the
// paper benchmarks against in Figures 6 and 10. The search is a GenMax/
// MAFIA-style depth-first backtracking over vertical TID bitsets with the
// standard prunings:
//
//   - PEP (parent equivalence pruning): a tail item whose tidset contains
//     the head's tidset is moved into the head — every maximal superset of
//     the head contains it;
//   - FHUT lookahead: if head ∪ tail is itself frequent it is the only
//     candidate in this subtree;
//   - HUTMFI: if head ∪ tail is a subset of a known maximal set the whole
//     subtree is subsumed;
//   - dynamic reordering: extensions are re-sorted by increasing support so
//     the most constrained branches are explored first.
//
// Like every exact algorithm, its running time explodes when the number of
// mid-sized maximal patterns does (e.g. on Diag_n, which has C(n, n/2) of
// them) — exactly the behaviour Figure 6 documents and Pattern-Fusion
// sidesteps.
//
// Mining runs on Options.Parallelism workers. The subtrees under the
// root's (reordered) extensions are the task units on the shared
// engine.Tasks scheduler; each task keeps a task-local MFI, so its
// pruning — and therefore its visit count and candidate output — is a
// pure function of the task alone. Task candidates are concatenated
// in task order and passed through a sequential subsumption filter, which
// restores exactly the answer a globally shared MFI produces (a candidate
// survives a task-local MFI iff it is not subsumed by an earlier candidate
// of its own subtree; the filter removes the cross-subtree subsumptions in
// the same earliest-wins order the shared table would have). Every stage
// is deterministic, so the result is bit-identical for every worker count.
package maximal

import (
	"context"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/tidset"
)

// split plans a run at the resolved support threshold. The root work is
// the root node over the frequent single items; its surviving extensions
// are the task units, none when the root handles the run outright (no
// frequent items, or PEP, FHUT or HUTMFI closing the whole tree — then
// the root's own result, at most one pattern, is the answer). Each task
// returns its raw candidate stream; the plan's Merge concatenates the
// streams in task order and applies filterSubsumed, which restores the
// shared-MFI answer exactly. Cancellation is polled on ctx at every
// search node; a canceled run returns the candidates found so far with
// Stopped=true.
func split(ctx context.Context, d *dataset.Dataset, opts engine.Options) *engine.Plan {
	minCount := opts.ResolveMinCount(d)
	meter := engine.NewMeter(ctx, Name, opts.Observer)
	root := &miner{meter: meter, d: d, minCount: minCount, res: &engine.Report{}, sc: newScratch(d)}
	plan := &engine.Plan{Root: root.res, Merge: func(parts []*engine.Report) *engine.Report {
		rep := engine.Concat(parts)
		var stopped bool
		rep.Patterns, stopped = filterSubsumed(ctx, d, rep.Patterns)
		rep.Stopped = rep.Stopped || stopped
		return rep
	}}

	var tail []extension
	for _, item := range d.FrequentItems(minCount) {
		tids := d.ItemTIDs(item)
		tail = append(tail, extension{item: item, tids: tids, sup: tids.Count()})
	}
	if len(tail) == 0 {
		return plan
	}
	// The root node runs here, once; its surviving extensions are the
	// parallel task units (head, extension tidsets and the shared tail
	// slices are read-only across workers). The root's extension tidsets
	// come from the root scratch pool and are deliberately never recycled —
	// the tasks keep reading them for the whole run.
	root.res.Visited++
	head, exts, handled := root.node(nil, tidset.Full(d.Size()), tail)
	if handled {
		return plan
	}
	scratchOf := engine.PerWorker(opts.Parallelism, func() *scratch { return newScratch(d) })
	plan.Units = len(exts)
	plan.Task = func(worker, unit int) *engine.Report {
		sub := &miner{meter: meter, d: d, minCount: minCount, res: &engine.Report{}, sc: scratchOf(worker)}
		sub.search(head.Add(exts[unit].item), exts[unit].tids, exts[unit+1:])
		return sub.res
	}
	return plan
}

// filterSubsumed keeps, in order, every candidate not contained in an
// already-kept candidate — the sequential replay of the shared-MFI
// subsumption test over the task-order candidate stream. Because ⊆ is
// transitive, that keeps exactly the candidates contained in no earlier
// candidate, so filtering consecutive runs of the stream first and their
// concatenation after gives the same answer: a shard can ship its
// filtered stream. The filter is quadratic, so it polls ctx before each
// candidate: once ctx is canceled it returns the candidates kept so far
// followed by the rest unfiltered, and reports stopped.
func filterSubsumed(ctx context.Context, d *dataset.Dataset, candidates []*dataset.Pattern) (out []*dataset.Pattern, stopped bool) {
	kept := make([]itemBits, 0, len(candidates))
	out = make([]*dataset.Pattern, 0, len(candidates))
	for i, p := range candidates {
		if ctx.Err() != nil {
			return append(out, candidates[i:]...), true
		}
		bits := bitset.New(d.NumItems())
		for _, it := range p.Items {
			bits.Set(it)
		}
		subsumed := false
		for _, mx := range kept {
			if bits.SubsetOf(mx.bits) {
				subsumed = true
				break
			}
		}
		if subsumed {
			continue
		}
		kept = append(kept, itemBits{pattern: p, bits: bits})
		out = append(out, p)
	}
	return out, false
}

type extension struct {
	item int
	tids *tidset.Set
	sup  int // cached |tids|: read by the reordering comparator
}

type miner struct {
	meter    *engine.Meter
	d        *dataset.Dataset
	minCount int
	res      *engine.Report
	sc       *scratch
	// mfi is the list of maximal sets this miner has found so far, each
	// with an item bitset for fast subset tests. In a parallel run every
	// task owns its own miner, so the table is task-local by construction.
	mfi []itemBits
}

// scratch is the per-worker allocation state: a pool recycling extension
// TID-sets of closed branches, an arena for the compact TID-sets recorded
// patterns retain, and reusable buffers for the HUT probe (itemset and
// item bitset), which previously allocated per node.
type scratch struct {
	pool     *tidset.Pool
	tids     tidset.Arena
	itemBits *bitset.Bitset // over item IDs; reused by the HUTMFI probe
	hutBuf   itemset.Itemset
}

func newScratch(d *dataset.Dataset) *scratch {
	return &scratch{pool: tidset.NewPool(d.Size()), itemBits: bitset.New(d.NumItems())}
}

type itemBits struct {
	pattern *dataset.Pattern
	bits    *bitset.Bitset // over item IDs
}

// visit records one search node with the meter and latches cancellation
// into the result.
func (m *miner) visit() bool {
	if m.meter.Visit(0) {
		m.res.Stopped = true
	}
	return m.res.Stopped
}

func (m *miner) itemBitsOf(items itemset.Itemset) *bitset.Bitset {
	b := bitset.New(m.d.NumItems())
	for _, it := range items {
		b.Set(it)
	}
	return b
}

// subsumed reports whether items is contained in a known maximal set.
func (m *miner) subsumed(bits *bitset.Bitset) bool {
	for _, mx := range m.mfi {
		if bits.SubsetOf(mx.bits) {
			return true
		}
	}
	return false
}

// probeSubsumed is subsumed over the reusable scratch item bitset — for
// probes whose bitset is not retained (the HUTMFI test).
func (m *miner) probeSubsumed(items itemset.Itemset) bool {
	b := m.sc.itemBits
	b.Reset()
	for _, it := range items {
		b.Set(it)
	}
	return m.subsumed(b)
}

// record adds items to the MFI if it is not subsumed. sup is |tids|, which
// every call site already has in hand. tids may be a pooled scratch set;
// the pattern retains an arena-carved compact copy.
func (m *miner) record(items itemset.Itemset, tids *tidset.Set, sup int) {
	bits := m.itemBitsOf(items)
	if m.subsumed(bits) {
		return
	}
	p := dataset.NewPatternCounted(items, m.sc.tids.CompactClone(tids), sup)
	m.mfi = append(m.mfi, itemBits{pattern: p, bits: bits})
	m.meter.Emitted(1)
	m.res.Patterns = append(m.res.Patterns, p)
}

// search explores the subtree of head (with support set tids) using the
// candidate extensions in tail. Tail tidsets may be relative to any
// ancestor; they are re-intersected with tids on entry.
func (m *miner) search(head itemset.Itemset, tids *tidset.Set, tail []extension) {
	if m.visit() {
		return
	}
	m.res.Visited++
	head, exts, handled := m.node(head, tids, tail)
	if handled {
		return
	}
	for i, e := range exts {
		m.search(head.Add(e.item), e.tids, exts[i+1:])
		if m.res.Stopped {
			break
		}
	}
	for _, e := range exts {
		m.sc.pool.Put(e.tids)
	}
}

// node performs the non-recursive work of one search node — extension
// gathering with PEP absorption, leaf recording, the HUTMFI subsumption
// prune, the FHUT lookahead, and dynamic reordering — and returns the
// (possibly PEP-grown) head with its reordered extensions. handled=true
// means the node completed without needing to recurse; split uses
// the root node's extensions as the parallel task units.
func (m *miner) node(head itemset.Itemset, tids *tidset.Set, tail []extension) (itemset.Itemset, []extension, bool) {
	// Compute frequent extensions relative to head; PEP-absorb equal-support
	// ones directly into the head. Extension tidsets are pooled scratch
	// sets, recycled by whichever path discards them.
	headSup := tids.Count()
	var exts []extension
	for _, e := range tail {
		sub := m.sc.pool.Get()
		sub.AndOf(tids, e.tids)
		c := sub.Count()
		if c < m.minCount {
			m.sc.pool.Put(sub)
			continue
		}
		if c == headSup {
			// PEP: D_head ⊆ D_item, so every maximal superset of head
			// includes this item.
			head = head.Add(e.item)
			m.sc.pool.Put(sub)
			continue
		}
		exts = append(exts, extension{item: e.item, tids: sub, sup: c})
	}

	if len(exts) == 0 {
		m.record(head, tids, headSup)
		return head, nil, true
	}

	// HUT = head ∪ tail: used by both the HUTMFI subsumption prune and the
	// FHUT frequency lookahead. Built in a reusable buffer — extension
	// items are disjoint from head, so append-then-sort is canonical.
	hut := append(m.sc.hutBuf[:0], head...)
	for _, e := range exts {
		hut = append(hut, e.item)
	}
	m.sc.hutBuf = hut
	sort.Ints(hut)
	if m.probeSubsumed(hut) {
		m.putExts(exts)
		return head, nil, true
	}
	hutTids := m.sc.pool.Get()
	hutTids.CopyFrom(tids)
	hutSup := 0
	frequent := true
	for _, e := range exts {
		hutTids.InPlaceAnd(e.tids)
		if hutSup = hutTids.Count(); hutSup < m.minCount {
			frequent = false
			break
		}
	}
	if frequent {
		// FHUT: head ∪ tail is frequent — the unique maximal candidate here.
		m.record(hut.Clone(), hutTids, hutSup)
		m.sc.pool.Put(hutTids)
		m.putExts(exts)
		return head, nil, true
	}
	m.sc.pool.Put(hutTids)

	// Dynamic reordering: most constrained (lowest support) first, using the
	// supports cached when the extensions were gathered (the comparator used
	// to re-popcount both tidsets on every comparison).
	sort.Slice(exts, func(i, j int) bool {
		if exts[i].sup != exts[j].sup {
			return exts[i].sup < exts[j].sup
		}
		return exts[i].item < exts[j].item
	})
	return head, exts, false
}

// putExts recycles the TID-sets of a discarded extension list.
func (m *miner) putExts(exts []extension) {
	for _, e := range exts {
		m.sc.pool.Put(e.tids)
	}
}

// IsMaximal reports whether alpha is maximal in d at minCount: alpha is
// frequent and no single-item extension is frequent. (Utility for tests.)
func IsMaximal(d *dataset.Dataset, alpha itemset.Itemset, minCount int) bool {
	tids := d.TIDSet(alpha)
	if tids.Count() < minCount {
		return false
	}
	for item := 0; item < d.NumItems(); item++ {
		if alpha.Contains(item) {
			continue
		}
		if tids.AndCount(d.ItemTIDs(item)) >= minCount {
			return false
		}
	}
	return true
}
