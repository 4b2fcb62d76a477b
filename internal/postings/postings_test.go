package postings

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

// uniform returns a universe of n sequences of length bases each.
func uniform(n int, length int32) Seqs {
	lens := make([]int32, n)
	for i := range lens {
		lens[i] = length
	}
	return NewSeqs(lens)
}

func ids(entries []Entry) []uint32 {
	out := make([]uint32, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

func TestEncodeDecodeWithOffsets(t *testing.T) {
	entries := []Entry{
		{ID: 2, Count: 3, Offsets: []uint32{0, 7, 100}},
		{ID: 3, Count: 1, Offsets: []uint32{55}},
		{ID: 40, Count: 2, Offsets: []uint32{1, 2}},
	}
	seqs := uniform(64, 101)
	buf, err := Encode(entries, seqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf, len(entries), seqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Errorf("round trip = %+v, want %+v", got, entries)
	}
}

func TestEncodeEmpty(t *testing.T) {
	buf, err := Encode(nil, uniform(100, 500))
	if err != nil || buf != nil {
		t.Fatalf("Encode(nil) = %v, %v", buf, err)
	}
	got, err := Decode(nil, 0, uniform(100, 500))
	if err != nil || len(got) != 0 {
		t.Fatalf("Decode empty = %v, %v", got, err)
	}
}

func TestEncodeValidation(t *testing.T) {
	one := []uint32{0}
	cases := []struct {
		name    string
		entries []Entry
		numSeqs int
	}{
		{"descending ids", []Entry{{ID: 5, Count: 1, Offsets: one}, {ID: 4, Count: 1, Offsets: one}}, 10},
		{"duplicate ids", []Entry{{ID: 5, Count: 1, Offsets: one}, {ID: 5, Count: 1, Offsets: one}}, 10},
		{"id outside universe", []Entry{{ID: 10, Count: 1, Offsets: one}}, 10},
		{"zero count", []Entry{{ID: 1, Count: 0}}, 10},
		{"no offsets", []Entry{{ID: 1, Count: 1}}, 10},
		{"count/offsets mismatch", []Entry{{ID: 1, Count: 2, Offsets: []uint32{3}}}, 10},
		{"unsorted offsets", []Entry{{ID: 1, Count: 2, Offsets: []uint32{5, 3}}}, 10},
		{"duplicate offsets", []Entry{{ID: 1, Count: 2, Offsets: []uint32{3, 3}}}, 10},
		{"offset at sequence end", []Entry{{ID: 1, Count: 2, Offsets: []uint32{3, 50}}}, 10},
		{"offset in empty sequence", []Entry{{ID: 9, Count: 1, Offsets: one}}, 10},
	}
	for _, c := range cases {
		lens := make([]int32, c.numSeqs)
		for i := range lens {
			lens[i] = 50
		}
		lens[len(lens)-1] = 0
		if _, err := Encode(c.entries, NewSeqs(lens)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestIteratorStreams(t *testing.T) {
	entries := []Entry{
		{ID: 1, Count: 2, Offsets: []uint32{10, 20}},
		{ID: 9, Count: 1, Offsets: []uint32{0}},
	}
	seqs := uniform(16, 30)
	buf, err := Encode(entries, seqs)
	if err != nil {
		t.Fatal(err)
	}
	var it Iterator
	it.Reset(buf, len(entries), seqs)
	var got []Entry
	for it.Next() {
		e := it.Entry()
		offs := append([]uint32(nil), e.Offsets...)
		e.Offsets = offs
		got = append(got, e)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if !reflect.DeepEqual(got, entries) {
		t.Errorf("iterator = %+v, want %+v", got, entries)
	}
	if it.Next() {
		t.Error("Next returned true after exhaustion")
	}
}

func TestDecodeTruncated(t *testing.T) {
	entries := []Entry{
		{ID: 1, Count: 5, Offsets: []uint32{0, 1, 2, 3, 4}},
		{ID: 100, Count: 1, Offsets: []uint32{499}},
		{ID: 5000, Count: 1, Offsets: []uint32{7}},
	}
	seqs := uniform(10000, 500)
	buf, err := Encode(entries, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf[:1], len(entries), seqs); err == nil {
		t.Error("decoded from truncated buffer")
	}
	// A cut inside the first posting's offset run names the offset it
	// lands in, as the reference decoder does, not only the entry.
	offsetErr := regexp.MustCompile(`^postings: entry 0 offset \d+: `)
	var it Iterator
	var ref refIterator
	named := 0
	for n := 1; n < len(buf); n++ {
		it.Reset(buf[:n:n], len(entries), seqs)
		for it.Next() {
		}
		ref.Reset(buf[:n:n], len(entries), seqs)
		for ref.Next() {
		}
		if want := offsetErr.FindString(fmt.Sprint(ref.Err())); want != "" {
			named++
			if got := fmt.Sprint(it.Err()); !strings.HasPrefix(got, want) {
				t.Errorf("cut at %d bytes: err = %s, want it to start %q", n, got, want)
			}
		}
	}
	if named == 0 {
		t.Fatal("no cut landed inside the first posting's offsets")
	}
}

func TestDecodeWrongDF(t *testing.T) {
	entries := []Entry{{ID: 1, Count: 1, Offsets: []uint32{5}}, {ID: 2, Count: 1, Offsets: []uint32{6}}}
	seqs := uniform(100, 500)
	buf, err := Encode(entries, seqs)
	if err != nil {
		t.Fatal(err)
	}
	// Asking for fewer entries silently stops early (the lexicon is the
	// source of truth); asking for many more must eventually error on
	// padding exhaustion rather than loop forever.
	got, err := Decode(buf, 1, seqs)
	if err != nil || len(got) != 1 {
		t.Errorf("short decode = %v, %v", got, err)
	}
	if _, err := Decode(buf, 1000, seqs); err == nil {
		t.Log("over-long decode succeeded on zero padding; acceptable only if ids stay plausible")
	}
}

func TestIteratorReuse(t *testing.T) {
	a := []Entry{{ID: 1, Count: 1, Offsets: []uint32{4}}}
	b := []Entry{{ID: 7, Count: 2, Offsets: []uint32{8, 9}}}
	seqs := uniform(10, 500)
	bufA, _ := Encode(a, seqs)
	bufB, _ := Encode(b, seqs)
	var it Iterator
	it.Reset(bufA, 1, seqs)
	if !it.Next() || it.Entry().ID != 1 {
		t.Fatal("first list")
	}
	it.Reset(bufB, 1, seqs)
	if !it.Next() || it.Entry().ID != 7 || it.Entry().Count != 2 {
		t.Fatal("second list after reuse")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numSeqs := 1 + rng.Intn(10000)
		df := rng.Intn(numSeqs)
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
			n := 1 + rng.Intn(5)
			entries[i].Count = uint32(n)
			offs := map[uint32]bool{}
			for len(offs) < n {
				offs[uint32(rng.Intn(100000))] = true
			}
			for o := range offs {
				entries[i].Offsets = append(entries[i].Offsets, o)
			}
			sortOffsets(entries[i].Offsets)
		}
		seqs := uniform(numSeqs, 100000)
		buf, err := Encode(entries, seqs)
		if err != nil {
			return false
		}
		got, err := Decode(buf, df, seqs)
		if err != nil {
			return false
		}
		if len(got) == 0 && len(entries) == 0 {
			return true
		}
		return reflect.DeepEqual(got, entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sortEntries(entries []Entry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].ID < entries[j-1].ID; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

func sortOffsets(offs []uint32) {
	for i := 1; i < len(offs); i++ {
		for j := i; j > 0 && offs[j] < offs[j-1]; j-- {
			offs[j], offs[j-1] = offs[j-1], offs[j]
		}
	}
}

func TestCompressionEffective(t *testing.T) {
	// A dense list over a large universe must compress far below the
	// 12 bytes/posting of a naive representation (id, count, offset).
	rng := rand.New(rand.NewSource(12))
	const numSeqs = 100000
	var entries []Entry
	for id := 0; id < numSeqs; id += 1 + rng.Intn(20) {
		entries = append(entries, Entry{ID: uint32(id), Count: 1, Offsets: []uint32{uint32(rng.Intn(500))}})
	}
	buf, err := Encode(entries, uniform(numSeqs, 500))
	if err != nil {
		t.Fatal(err)
	}
	bytesPerPosting := float64(len(buf)) / float64(len(entries))
	if bytesPerPosting > 2 {
		t.Errorf("%.2f bytes/posting, want ≤ 2", bytesPerPosting)
	}
}
