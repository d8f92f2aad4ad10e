package tidset

import (
	"reflect"
	"testing"

	"repro/internal/bitset"
)

// FuzzTIDSet is the differential fuzz test of the compressed kernels
// against the dense internal/bitset reference: on arbitrary column
// profiles (universe size, two member bitmaps, a threshold, a forced
// representation pairing) the hybrid Set must agree with the Bitset on
// And membership, counts, AndCountAtLeast, SubsetOf (in both directions),
// Jaccard/Distance, iteration and NextSet, and so must a DenseCopyFrom
// mirror written over a dirty scratch — the contract that keeps the
// miners' golden outputs representation-independent. Hash must agree
// across every representation of the same members and read no payload
// left behind by an earlier, larger set, since fusion groups its pool by
// it.
func FuzzTIDSet(f *testing.F) {
	f.Add(uint16(70), []byte{0xff, 0x0f, 0x00, 0x01}, []byte{0x01, 0x02, 0x03, 0x04}, 3, byte(0))
	f.Add(uint16(64), []byte{0x00}, []byte{0xff}, 0, byte(1))
	f.Add(uint16(300), []byte{0xaa, 0xaa, 0xaa}, []byte{0x55}, 17, byte(2))
	f.Add(uint16(1), []byte{}, []byte{0x01}, 1, byte(3))
	// a ⊆ b under every representation pairing, so SubsetOf's accepting
	// paths run from the seed corpus alone.
	for repr := byte(0); repr < 4; repr++ {
		f.Add(uint16(200), []byte{0x01, 0x10, 0, 0, 0, 0, 0, 0, 0x80}, []byte{0x11, 0x11, 0, 0, 0, 0, 0, 0, 0x80}, 2, repr)
	}
	// a = b under every representation pairing, so Equal's accepting path
	// meets Hash from the seed corpus alone.
	for repr := byte(0); repr < 4; repr++ {
		f.Add(uint16(300), []byte{0x03, 0, 0x40, 0, 0, 0, 0, 0, 0x01}, []byte{0x03, 0, 0x40, 0, 0, 0, 0, 0, 0x01}, 1, repr)
	}
	f.Fuzz(func(t *testing.T, un uint16, abits, bbits []byte, threshold int, repr byte) {
		n := int(un)%1024 + 1
		idx := func(raw []byte) []int {
			var out []int
			for i := 0; i < n && i/8 < len(raw); i++ {
				if raw[i/8]&(1<<(uint(i)%8)) != 0 {
					out = append(out, i)
				}
			}
			return out
		}
		ia, ib := idx(abits), idx(bbits)
		ba, bb := bitset.FromIndices(n, ia), bitset.FromIndices(n, ib)
		// repr forces one of the four representation pairings so the fuzzer
		// exercises every kernel path regardless of the natural choice.
		sa := force(FromIndices(n, ia), repr&1 != 0)
		sb := force(FromIndices(n, ib), repr&2 != 0)

		if got, want := sa.Count(), ba.Count(); got != want {
			t.Fatalf("Count: %d vs %d", got, want)
		}
		if got, want := sa.AndCount(sb), ba.AndCount(bb); got != want {
			t.Fatalf("AndCount: %d vs %d", got, want)
		}
		if got, want := sa.AndCountAtLeast(sb, threshold), ba.AndCountAtLeast(bb, threshold); got != want {
			t.Fatalf("AndCountAtLeast(%d): %v vs %v", threshold, got, want)
		}
		if got, want := sa.SubsetOf(sb), ba.AndCount(bb) == ba.Count(); got != want {
			t.Fatalf("SubsetOf: %v vs %v", got, want)
		}
		if got, want := sb.SubsetOf(sa), bb.AndCount(ba) == bb.Count(); got != want {
			t.Fatalf("reverse SubsetOf: %v vs %v", got, want)
		}
		if got, want := sa.Jaccard(sb), ba.Jaccard(bb); got != want {
			t.Fatalf("Jaccard: %v vs %v", got, want)
		}
		and := sa.And(sb)
		if got, want := and.Indices(), ba.And(bb).Indices(); !reflect.DeepEqual(got, want) {
			t.Fatalf("And members: %v vs %v", got, want)
		}
		if and.Count() != len(and.Indices()) {
			t.Fatalf("And card %d != members %d", and.Count(), len(and.Indices()))
		}
		ip := sa.Clone()
		ip.InPlaceAnd(sb)
		if !ip.Equal(and) {
			t.Fatal("InPlaceAnd disagrees with And")
		}
		cc := and.CompactClone()
		if !cc.Equal(and) {
			t.Fatal("CompactClone changed membership")
		}
		if got, want := sa.Indices(), ba.Indices(); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration: %v vs %v", got, want)
		}
		// A dense copy of sa written over one of sb, so stale words are
		// present, must read as sa under every kernel it feeds.
		mirror := New(n)
		mirror.DenseCopyFrom(sb)
		mirror.DenseCopyFrom(sa)
		if !mirror.IsDense() || mirror.Count() != ba.Count() {
			t.Fatalf("DenseCopyFrom: dense %v, count %d, want dense, %d", mirror.IsDense(), mirror.Count(), ba.Count())
		}
		if got, want := mirror.Indices(), ba.Indices(); !reflect.DeepEqual(got, want) {
			t.Fatalf("DenseCopyFrom members: %v vs %v", got, want)
		}
		if got, want := mirror.AndCountAtLeast(sb, threshold), ba.AndCountAtLeast(bb, threshold); got != want {
			t.Fatalf("DenseCopyFrom AndCountAtLeast(%d): %v vs %v", threshold, got, want)
		}
		probed := New(n)
		probed.AndOf(mirror, sb)
		if got, want := probed.Indices(), ba.And(bb).Indices(); !reflect.DeepEqual(got, want) {
			t.Fatalf("DenseCopyFrom AndOf members: %v vs %v", got, want)
		}
		// Hash reads members, not payload: it agrees across sa's dense
		// mirror (written over sb's words), its compact clone and both forced
		// representations; an in-place intersection and a copy over a full
		// set leave stale words or elements past the live ones.
		ha := sa.Hash()
		if mirror.Hash() != ha || sa.CompactClone().Hash() != ha {
			t.Fatal("Hash differs between a set, its dense mirror and its compact clone")
		}
		for _, dense := range []bool{false, true} {
			if force(sa, dense).Hash() != ha {
				t.Fatalf("Hash differs for the forced dense=%v representation", dense)
			}
		}
		for _, pa := range []bool{false, true} {
			for _, pb := range []bool{false, true} {
				a, b := force(sa, pa), force(sb, pb)
				if a.Equal(b) && a.Hash() != b.Hash() {
					t.Fatalf("equal sets (dense %v, %v) hash differently", pa, pb)
				}
			}
		}
		if ip.Hash() != and.Hash() {
			t.Fatal("Hash of an in-place intersection reads stale payload")
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		for _, dense := range []bool{false, true} {
			stale := force(FromIndices(n, all), dense)
			stale.CopyFrom(sa)
			if stale.Hash() != ha {
				t.Fatalf("Hash of a copy over a full dense=%v set reads stale payload", dense)
			}
		}

		probe := threshold % (n + 1)
		if probe < 0 {
			probe = -probe % (n + 1)
		}
		if got, want := sa.NextSet(probe), ba.NextSet(probe); got != want {
			t.Fatalf("NextSet(%d): %d vs %d", probe, got, want)
		}
	})
}
