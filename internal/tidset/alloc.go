package tidset

// Pool recycles scratch sets over one universe. The DFS miners draw one
// set per intersection node from a worker-local pool and return it when
// the node's subtree completes, so the steady-state allocation rate of an
// extend/intersect loop is zero: each set's payload arrays grow to the
// loop's high-water mark once and are reused thereafter. A Pool is not
// safe for concurrent use; the miners keep one per worker through
// engine.PerWorker.
type Pool struct {
	n    int
	free []*Set
}

// NewPool returns a pool of sets over the universe [0, n).
func NewPool(n int) *Pool { return &Pool{n: n} }

// Get returns a set with unspecified contents: callers must fully
// overwrite it (AndOf, CopyFrom) before reading. Return it with Put when
// the value is no longer referenced.
func (p *Pool) Get() *Set {
	if k := len(p.free); k > 0 {
		s := p.free[k-1]
		p.free = p.free[:k-1]
		return s
	}
	return New(p.n)
}

// Put returns a set to the pool. The caller must not retain references to
// it (pattern emission detaches with CompactClone first).
func (p *Pool) Put(s *Set) { p.free = append(p.free, s) }

// Arena block-allocation sizes: headers per block, and payload elements/
// words per block. Oversized payloads get dedicated allocations.
const (
	arenaHdrBlock  = 256
	arenaElemBlock = 1 << 14
	arenaWordBlock = 1 << 12
)

// Arena carves long-lived compact set copies out of shared blocks, so
// retaining one emitted pattern's support set costs amortized well under
// one heap allocation instead of two (header + payload). Arenas only
// grow — freeing is by dropping the whole arena — which fits the miners'
// usage: everything carved is a pattern retained in the Result. An Arena
// is not safe for concurrent use; each scheduler worker owns one.
type Arena struct {
	hdrs  []Set
	elems []uint32
	words []uint64
}

// CompactClone returns an arena-backed minimal-footprint copy of s, with
// the same representation choice as Set.CompactClone: sparse when the
// cardinality is at or below SparseThreshold, dense otherwise.
func (a *Arena) CompactClone(s *Set) *Set {
	if len(a.hdrs) == cap(a.hdrs) {
		a.hdrs = make([]Set, 0, arenaHdrBlock)
	}
	a.hdrs = a.hdrs[:len(a.hdrs)+1]
	out := &a.hdrs[len(a.hdrs)-1]
	*out = Set{n: s.n, card: s.card}
	out.fillCompactFrom(s, a)
	return out
}

// elemBuf carves a k-element uint32 slice from the current block,
// starting a new block when it does not fit and falling back to a
// dedicated allocation for oversized requests.
func (a *Arena) elemBuf(k int) []uint32 {
	if k > arenaElemBlock/2 {
		return make([]uint32, k)
	}
	if cap(a.elems)-len(a.elems) < k {
		a.elems = make([]uint32, 0, arenaElemBlock)
	}
	buf := a.elems[len(a.elems) : len(a.elems)+k]
	a.elems = a.elems[:len(a.elems)+k]
	return buf
}

// wordBuf carves a k-word uint64 slice from the current block, with the
// same block policy as elemBuf.
func (a *Arena) wordBuf(k int) []uint64 {
	if k > arenaWordBlock/2 {
		return make([]uint64, k)
	}
	if cap(a.words)-len(a.words) < k {
		a.words = make([]uint64, 0, arenaWordBlock)
	}
	buf := a.words[len(a.words) : len(a.words)+k]
	a.words = a.words[:len(a.words)+k]
	return buf
}

// Builder assembles the per-item column sets of a dataset, choosing each
// column's representation up front from its known support count — the
// hook the two-pass ingest builder uses, since pass 1 computes item
// frequencies before pass 2 streams the rows. Payloads are allocated
// exactly-sized, so a built column never over-reserves.
type Builder struct {
	rows int
	sets []*Set
}

// NewBuilder returns a builder for len(counts) columns over a universe of
// rows transactions; counts[c] is column c's final cardinality (a column
// may end up smaller if the caller adds fewer rows, at the cost of one
// reallocation for sparse columns that exceed their count).
func NewBuilder(rows int, counts []int) *Builder {
	b := &Builder{rows: rows, sets: make([]*Set, len(counts))}
	thr := SparseThreshold(rows)
	for c, cnt := range counts {
		s := New(rows)
		if cnt <= thr {
			s.elems = make([]uint32, 0, cnt)
		} else {
			s.dense = true
			s.words = make([]uint64, wordsFor(rows))
		}
		b.sets[c] = s
	}
	return b
}

// Add records that transaction row contains column col's item. Rows must
// be added in strictly increasing order per column (the streaming
// builders emit rows in TID order, which satisfies this for every
// column).
func (b *Builder) Add(col, row int) {
	s := b.sets[col]
	if s.dense {
		s.words[row/wordBits] |= 1 << (uint(row) % wordBits)
	} else {
		s.elems = append(s.elems, uint32(row))
	}
	s.card++
}

// Sets returns the built column sets. The builder must not be used after.
func (b *Builder) Sets() []*Set { return b.sets }
