package postings

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func makeEntries(rng *rand.Rand, numSeqs, df int, withOffsets bool) []Entry {
	idSet := map[uint32]bool{}
	for len(idSet) < df {
		idSet[uint32(rng.Intn(numSeqs))] = true
	}
	entries := make([]Entry, 0, df)
	for id := range idSet {
		entries = append(entries, Entry{ID: id})
	}
	sortEntries(entries)
	for i := range entries {
		n := 1 + rng.Intn(4)
		entries[i].Count = uint32(n)
		if withOffsets {
			offs := map[uint32]bool{}
			for len(offs) < n {
				offs[uint32(rng.Intn(100000))] = true
			}
			for o := range offs {
				entries[i].Offsets = append(entries[i].Offsets, o)
			}
			sortOffsets(entries[i].Offsets)
		} else {
			entries[i].Count = uint32(n)
		}
	}
	return entries
}

func TestSkippedFullIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, withOffsets := range []bool{false, true} {
		for _, df := range []int{1, 2, 7, 100, 500} {
			entries := makeEntries(rng, 10000, df, withOffsets)
			buf, err := EncodeSkipped(entries, 10000, withOffsets, 0)
			if err != nil {
				t.Fatal(err)
			}
			sl, err := OpenSkipped(buf, df, 10000, withOffsets)
			if err != nil {
				t.Fatal(err)
			}
			it := sl.Iter()
			var got []Entry
			for it.Next() {
				e := it.Entry()
				if withOffsets {
					e.Offsets = append([]uint32(nil), e.Offsets...)
				}
				got = append(got, e)
			}
			if it.Err() != nil {
				t.Fatalf("df=%d offsets=%v: %v", df, withOffsets, it.Err())
			}
			if !reflect.DeepEqual(got, entries) {
				t.Fatalf("df=%d offsets=%v: iteration mismatch", df, withOffsets)
			}
		}
	}
}

func TestSkippedSeekGE(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	entries := makeEntries(rng, 50000, 2000, false)
	buf, err := EncodeSkipped(entries, 50000, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := OpenSkipped(buf, len(entries), 50000, false)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: linear search over decoded entries.
	seekRef := func(target uint32) (Entry, bool) {
		for _, e := range entries {
			if e.ID >= target {
				return e, true
			}
		}
		return Entry{}, false
	}

	it := sl.Iter()
	// Ascending targets, mix of present and absent ids.
	target := uint32(0)
	for i := 0; i < 300; i++ {
		target += uint32(rng.Intn(300))
		want, ok := seekRef(target)
		got := it.SeekGE(target)
		if got != ok {
			t.Fatalf("SeekGE(%d) = %v, want %v", target, got, ok)
		}
		if ok {
			e := it.Entry()
			if e.ID != want.ID || e.Count != want.Count {
				t.Fatalf("SeekGE(%d) entry = %+v, want %+v", target, e, want)
			}
			// Seek must land GE, not skip past the first qualifying id.
			target = e.ID // next target from here (non-decreasing)
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestSkippedSeekGEWithOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	entries := makeEntries(rng, 5000, 300, true)
	buf, err := EncodeSkipped(entries, 5000, true, 10)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := OpenSkipped(buf, len(entries), 5000, true)
	if err != nil {
		t.Fatal(err)
	}
	it := sl.Iter()
	mid := entries[len(entries)/2]
	if !it.SeekGE(mid.ID) {
		t.Fatal("SeekGE missed an existing id")
	}
	got := it.Entry()
	if got.ID != mid.ID || !reflect.DeepEqual(append([]uint32(nil), got.Offsets...), mid.Offsets) {
		t.Fatalf("entry = %+v, want %+v", got, mid)
	}
}

func TestSkippedSeekToCurrent(t *testing.T) {
	entries := []Entry{{ID: 3, Count: 1}, {ID: 8, Count: 1}, {ID: 15, Count: 1}}
	buf, err := EncodeSkipped(entries, 100, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := OpenSkipped(buf, 3, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	it := sl.Iter()
	if !it.SeekGE(8) || it.Entry().ID != 8 {
		t.Fatal("first seek")
	}
	// Seeking to the current id again stays put.
	if !it.SeekGE(8) || it.Entry().ID != 8 {
		t.Fatal("re-seek to current id moved")
	}
	if !it.SeekGE(9) || it.Entry().ID != 15 {
		t.Fatal("seek past current")
	}
	if it.SeekGE(16) {
		t.Fatal("seek beyond last id succeeded")
	}
}

func TestSkippedEmptyList(t *testing.T) {
	sl, err := OpenSkipped(nil, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	it := sl.Iter()
	if it.Next() || it.SeekGE(0) {
		t.Error("empty list yielded entries")
	}
}

func TestSkippedCorrupt(t *testing.T) {
	entries := makeEntries(rand.New(rand.NewSource(84)), 1000, 100, false)
	buf, err := EncodeSkipped(entries, 1000, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSkipped(buf[:1], 100, 1000, false); err == nil {
		t.Error("truncated header accepted")
	}
	// Iterating a truncated payload must surface an error, not loop.
	sl, err := OpenSkipped(buf[:len(buf)/2], 100, 1000, false)
	if err == nil {
		it := sl.Iter()
		n := 0
		for it.Next() {
			n++
		}
		if it.Err() == nil && n == 100 {
			t.Error("half a payload decoded all entries without error")
		}
	}
}

func TestSkippedIntervalChoices(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	entries := makeEntries(rng, 20000, 1000, false)
	for _, interval := range []int{1, 2, 5, 37, 1000, 5000} {
		buf, err := EncodeSkipped(entries, 20000, false, interval)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		sl, err := OpenSkipped(buf, len(entries), 20000, false)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		it := sl.Iter()
		n := 0
		for it.Next() {
			n++
		}
		if it.Err() != nil || n != len(entries) {
			t.Fatalf("interval %d: decoded %d (%v)", interval, n, it.Err())
		}
	}
}

func TestPropertySkippedMatchesPlain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numSeqs := 100 + rng.Intn(5000)
		df := 1 + rng.Intn(numSeqs/2)
		withOffsets := rng.Intn(2) == 0
		entries := makeEntries(rng, numSeqs, df, withOffsets)

		buf, err := EncodeSkipped(entries, numSeqs, withOffsets, rng.Intn(20))
		if err != nil {
			return false
		}
		sl, err := OpenSkipped(buf, df, numSeqs, withOffsets)
		if err != nil {
			return false
		}
		it := sl.Iter()
		i := 0
		for it.Next() {
			e := it.Entry()
			if e.ID != entries[i].ID || e.Count != entries[i].Count {
				return false
			}
			i++
		}
		return it.Err() == nil && i == len(entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSkippedSeekEverySyncPoint enters a 300-entry list over a universe
// of 2 000 at each of its synchronisation points in turn. The Golomb
// parameter of the list is ⌈0.69·2000/300⌉ = 5; the one the remaining
// entry count alone would give (df − entry = 290, 280, …: 5, 5, 6, 6, 7,
// … up to 138) differs at nearly every point, so an iterator that
// derives its hoisted k and t from the entries left instead of the
// list's document frequency mis-decodes here. Every seek must land on
// the entries a plain Decode of the payload yields.
func TestSkippedSeekEverySyncPoint(t *testing.T) {
	const numSeqs, df, interval = 2000, 300, 10
	rng := rand.New(rand.NewSource(86))
	for _, withOffsets := range []bool{false, true} {
		entries := makeEntries(rng, numSeqs, df, withOffsets)
		plain, err := Encode(entries, numSeqs, withOffsets)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decode(plain, df, numSeqs, withOffsets)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := EncodeSkipped(entries, numSeqs, withOffsets, interval)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := OpenSkipped(buf, df, numSeqs, withOffsets)
		if err != nil {
			t.Fatal(err)
		}
		if len(sl.skipEntries) != df/interval-1 {
			t.Fatalf("list has %d sync points, want %d", len(sl.skipEntries), df/interval-1)
		}
		for _, entry := range sl.skipEntries {
			// A fresh iterator each time: the seek jumps straight to the
			// sync point and decodes the rest of the list from there.
			si := sl.Iter()
			if !si.SeekGE(want[entry].ID) {
				t.Fatalf("offsets %v: SeekGE(%d) found nothing: %v", withOffsets, want[entry].ID, si.Err())
			}
			var got []Entry
			for ok := true; ok; ok = si.Next() {
				e := si.Entry()
				e.Offsets = append([]uint32(nil), e.Offsets...)
				got = append(got, e)
			}
			if err := si.Err(); err != nil {
				t.Fatalf("offsets %v: from sync entry %d: %v", withOffsets, entry, err)
			}
			if !reflect.DeepEqual(got, want[entry:]) {
				t.Fatalf("offsets %v: from sync entry %d: decoded %d entries starting %+v, plain Decode has %d starting %+v",
					withOffsets, entry, len(got), got[0], len(want[entry:]), want[entry])
			}
		}
	}
}
