package postings

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"nucleodb/internal/compress"
)

// bigUniverse is the largest identifier universe an index allows. Over
// it, identifier gaps take their widest Golomb parameters (k up to 31,
// past the fast arm's q+1+k < 56 boundary), and corrupt lists reach ids
// at int32's limit, where the identifier guard stands.
const bigUniverse = 1<<31 - 1

var (
	bigOnce sync.Once
	bigS    Seqs
	bigIDs  []uint32
	bigOK   bool
)

// bigSeqs returns a universe of bigUniverse sequences, nearly all empty,
// and the ascending ids of those that have bases: 512 clusters of up to
// 16 ids, each cluster within 1 024 ids of a random place, and the last
// two ids; their lengths cycle through testLens. Lengths for every id
// would take 10 GB, so both columns live in zeroed memory from
// mapZeroed, where only the pages those sequences sit on are resident.
// ok is false where the platform cannot provide that memory.
func bigSeqs() (s Seqs, ids []uint32, ok bool) {
	bigOnce.Do(func() {
		lens, rice1, ok := mapZeroed(bigUniverse)
		if !ok {
			return
		}
		rng := rand.New(rand.NewSource(23))
		set := map[uint32]bool{bigUniverse - 2: true, bigUniverse - 1: true}
		for c := 0; c < 512; c++ {
			base := rng.Int63n(bigUniverse - 1024)
			for j := 0; j < 16; j++ {
				set[uint32(base+rng.Int63n(1024))] = true
			}
		}
		all := make([]uint32, 0, len(set))
		for id := range set {
			all = append(all, id)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for i, id := range all {
			l := testLens[i%len(testLens)]
			if id >= bigUniverse-2 {
				l = 1<<31 - 1
			}
			if l > 0 {
				lens[id], rice1[id] = l, uint8(offsetParameter(l, 1))
				bigIDs = append(bigIDs, id)
			}
		}
		bigS, bigOK = Seqs{lens: lens, rice1: rice1}, true
	})
	return bigS, bigIDs, bigOK
}

// TestIteratorWideGolombBoundary: identifier codes of exactly 56 bits,
// the longest the fast arm takes, over the 2³¹−1 universe, where
// parameters of 25 to 27 bits still let a quotient of 55 − k name a
// sequence inside it. The code sits in the list's last eight bytes,
// where the window holds zero fill past the list rather than the next
// bytes; the count of the posting before it moves it through every bit
// alignment, and the count of 2 after it starts with a one the arm must
// not read from that fill.
func TestIteratorWideGolombBoundary(t *testing.T) {
	seqs, ids, ok := bigSeqs()
	if !ok {
		t.Skip("no sparse memory for the 2³¹−1 universe on this platform")
	}
	var long []uint32 // sequences with room for 16 offsets
	for _, id := range ids {
		if seqs.lens[id] >= 16 {
			long = append(long, id)
		}
	}
	var it Iterator
	var ref refIterator
	for _, df := range []int{22, 32, 64} {
		b := compress.GolombParameter(bigUniverse, uint64(df))
		k := uint(bits.Len64(b - 1))
		q := uint64(55 - k)
		pairs := 0
		for j := df; j+2 < len(long) && pairs < 3; j++ {
			// long[i] lies q·b to (q+1)·b − 1 below long[j], with a
			// remainder that takes all k bits.
			i := sort.Search(j, func(i int) bool { return uint64(long[j]-long[i])-1 < (q+1)*b })
			gap := uint64(long[j]-long[i]) - 1
			if i == j || i < df || gap/b != q || gap%b < 1<<k-b {
				continue
			}
			pairs++
			for tail := 0; tail <= 2; tail++ {
				for count := uint32(1); count <= 16; count++ {
					var entries []Entry
					for _, id := range long[i-(df-2-tail) : i] {
						entries = append(entries, Entry{ID: id, Count: 1, Offsets: []uint32{0}})
					}
					e := Entry{ID: long[i], Count: count}
					for off := uint32(0); off < count; off++ {
						e.Offsets = append(e.Offsets, off)
					}
					entries = append(entries, e, Entry{ID: long[j], Count: 2, Offsets: []uint32{0, 1}})
					for _, id := range long[j+1 : j+1+tail] {
						entries = append(entries, Entry{ID: id, Count: 1, Offsets: []uint32{0}})
					}
					buf, err := Encode(entries, seqs)
					if err != nil {
						t.Fatal(err)
					}
					it.Reset(buf, df, seqs)
					if got := decodeAll(it.Next, it.Entry); it.Err() != nil || !equalEntries(got, entries) {
						t.Fatalf("df %d (k %d) ids %d, %d, count %d, tail %d: valid list does not round-trip: %d entries, err %v",
							df, k, long[i], long[j], count, tail, len(got), it.Err())
					}
					checkAgainstReference(t, &it, &ref, buf, df, seqs)
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("df %d: no two sequences %d·%d apart", df, q, b)
		}
	}
}
