package index

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

func storeOf(seqs ...string) *db.Store {
	var s db.Store
	for i, q := range seqs {
		s.Add("rec"+string(rune('0'+i)), dna.MustEncode(q))
	}
	return &s
}

func randomStore(seed int64, n, length int) *db.Store {
	rng := rand.New(rand.NewSource(seed))
	var s db.Store
	for i := 0; i < n; i++ {
		seq := make([]byte, length)
		for j := range seq {
			seq[j] = byte(rng.Intn(dna.NumBases))
		}
		s.Add("r", seq)
	}
	return &s
}

func TestBuildSmall(t *testing.T) {
	s := storeOf("ACGTACGT", "TTTACGTT", "GGGGGGGG")
	x, err := Build(s, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if x.NumSeqs() != 3 {
		t.Fatalf("NumSeqs = %d", x.NumSeqs())
	}
	coder := x.Coder()

	// ACGT occurs in sequences 0 (offsets 0 and 4) and 1 (offset 3).
	got, err := x.Postings(coder.Encode(dna.MustEncode("ACGT")))
	if err != nil {
		t.Fatal(err)
	}
	want := []postings.Entry{
		{ID: 0, Count: 2, Offsets: []uint32{0, 4}},
		{ID: 1, Count: 1, Offsets: []uint32{3}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("postings(ACGT) = %+v, want %+v", got, want)
	}

	// GGGG occurs 5 times in sequence 2 only.
	got, err = x.Postings(coder.Encode(dna.MustEncode("GGGG")))
	if err != nil {
		t.Fatal(err)
	}
	want = []postings.Entry{{ID: 2, Count: 5, Offsets: []uint32{0, 1, 2, 3, 4}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("postings(GGGG) = %+v, want %+v", got, want)
	}

	// Absent term.
	if got, err := x.Postings(coder.Encode(dna.MustEncode("CCCC"))); err != nil || got != nil {
		t.Errorf("postings(CCCC) = %+v, %v", got, err)
	}
}

// TestBuildWithoutOffsets: options that leave the deprecated
// StoreOffsets unset still build lists with offsets, and Build and Load
// record the field as true, so Options() describes the lists.
func TestBuildWithoutOffsets(t *testing.T) {
	s := storeOf("ACGTACGT", "TTTACGTT")
	x, err := Build(s, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := x.Postings(x.Coder().Encode(dna.MustEncode("ACGT")))
	if err != nil {
		t.Fatal(err)
	}
	want := []postings.Entry{{ID: 0, Count: 2, Offsets: []uint32{0, 4}}, {ID: 1, Count: 1, Offsets: []uint32{3}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("postings = %+v, want %+v", got, want)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for via, idx := range map[string]*Index{"Build": x, "Load": loaded} {
		if !idx.Options().StoreOffsets {
			t.Errorf("%s recorded options %+v, want StoreOffsets true", via, idx.Options())
		}
	}
}

func TestBuildOptionsValidation(t *testing.T) {
	s := storeOf("ACGT")
	for _, o := range []Options{{K: 0}, {K: MaxK + 1}, {K: 4, StopFraction: -0.1}, {K: 4, StopFraction: 1.5}} {
		if _, err := Build(s, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

func TestDF(t *testing.T) {
	s := storeOf("ACGTACGT", "TTTACGTT", "GGGGGGGG")
	x, err := Build(s, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := x.Coder()
	if df := x.DF(c.Encode(dna.MustEncode("ACGT"))); df != 2 {
		t.Errorf("DF(ACGT) = %d, want 2", df)
	}
	if df := x.DF(c.Encode(dna.MustEncode("GGGG"))); df != 1 {
		t.Errorf("DF(GGGG) = %d, want 1", df)
	}
	if df := x.DF(c.Encode(dna.MustEncode("CCCC"))); df != 0 {
		t.Errorf("DF(CCCC) = %d, want 0", df)
	}
}

func TestShortSequencesYieldNothing(t *testing.T) {
	s := storeOf("AC", "A", "")
	x, err := Build(s, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if x.NumTermsIndexed() != 0 {
		t.Errorf("short sequences produced %d terms", x.NumTermsIndexed())
	}
	if x.NumSeqs() != 3 {
		t.Errorf("NumSeqs = %d", x.NumSeqs())
	}
}

func TestStopping(t *testing.T) {
	// AAAA is by far the most frequent interval; stopping a small
	// fraction must remove exactly it.
	s := storeOf("AAAAAAAAAAAAAAAAAAAAAAAA", "ACGTACGTACGT", "AAAAAAAACCCC")
	noStop, err := Build(s, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(s, Options{K: 4, StopFraction: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	c := x.Coder()
	aaaa := c.Encode(dna.MustEncode("AAAA"))
	if !x.Stopped(aaaa) {
		t.Fatal("AAAA not stopped")
	}
	if x.DF(aaaa) != 0 {
		t.Errorf("stopped term has DF %d", x.DF(aaaa))
	}
	if noStop.DF(aaaa) == 0 {
		t.Error("unstopped index lacks AAAA")
	}
	if x.NumStopped() == 0 || x.NumTermsIndexed() >= noStop.NumTermsIndexed() {
		t.Errorf("stopping had no effect: %d stopped, %d vs %d terms",
			x.NumStopped(), x.NumTermsIndexed(), noStop.NumTermsIndexed())
	}
	if x.PostingsBytes() >= noStop.PostingsBytes() {
		t.Errorf("stopping did not shrink postings: %d vs %d", x.PostingsBytes(), noStop.PostingsBytes())
	}
	// Other terms unaffected.
	acgt := c.Encode(dna.MustEncode("ACGT"))
	a, _ := x.Postings(acgt)
	b, _ := noStop.Postings(acgt)
	if !reflect.DeepEqual(a, b) {
		t.Error("stopping altered an unstopped term's list")
	}
}

func TestReaderIteratesAll(t *testing.T) {
	s := storeOf("ACGTACGT", "TTTACGTT", "ACGTTTTT")
	x, err := Build(s, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	var it postings.Iterator
	df, _ := x.ReaderStats(x.Coder().Encode(dna.MustEncode("ACGT")), &it)
	if df != 3 {
		t.Fatalf("ReaderStats df = %d, want 3", df)
	}
	n := 0
	for it.Next() {
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != df {
		t.Errorf("iterated %d entries, want %d", n, df)
	}
	// Unknown term: empty iterator, df 0.
	if df, _ := x.ReaderStats(kmer.Term(1<<40), &it); df != 0 {
		t.Errorf("unknown term df = %d", df)
	}
	if it.Next() {
		t.Error("empty iterator yielded an entry")
	}
}

func TestSeqLens(t *testing.T) {
	s := storeOf("ACGTACGT", "TTT")
	x, err := Build(s, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.SeqLen(0) != 8 || x.SeqLen(1) != 3 {
		t.Errorf("SeqLen = %d,%d", x.SeqLen(0), x.SeqLen(1))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s db.Store
	for i := 0; i < 30; i++ {
		seq := make([]byte, 50+rng.Intn(200))
		for j := range seq {
			seq[j] = byte(rng.Intn(dna.NumBases))
		}
		s.Add("r", seq)
	}
	for _, opts := range []Options{
		{K: 6},
		{K: 8, StopFraction: 0.05},
	} {
		x, err := Build(&s, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Options() != x.Options() {
			t.Errorf("options = %+v, want %+v", got.Options(), x.Options())
		}
		if got.NumSeqs() != x.NumSeqs() || got.NumTermsIndexed() != x.NumTermsIndexed() ||
			got.NumStopped() != x.NumStopped() || got.PostingsBytes() != x.PostingsBytes() {
			t.Fatalf("loaded index shape differs")
		}
		// Every term's postings must round-trip.
		for _, term := range x.terms {
			a, err := x.Postings(kmer.Term(term))
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.Postings(kmer.Term(term))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("term %d postings differ after reload", term)
			}
		}
		for id := 0; id < x.NumSeqs(); id++ {
			if got.SeqLen(id) != x.SeqLen(id) {
				t.Errorf("SeqLen(%d) differs", id)
			}
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	s := storeOf("ACGTACGTAC", "TTTTACGT")
	x, err := Build(s, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Load(bytes.NewReader([]byte("NOTANIDX"))); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{8, 10, len(good) / 2, len(good) - 1} {
		if _, err := Load(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestIndexSizeAccounting(t *testing.T) {
	s := storeOf("ACGTACGTACGTACGT", "TGCATGCATGCA")
	x, err := Build(s, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if x.SizeBytes() < x.PostingsBytes()+x.LexiconBytes() {
		t.Error("SizeBytes misses components")
	}
	if x.PostingsBytes() == 0 || x.LexiconBytes() == 0 {
		t.Error("zero-size components on a non-trivial index")
	}
}

func TestPostingsSortedWithinTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s db.Store
	for i := 0; i < 50; i++ {
		seq := make([]byte, 100)
		for j := range seq {
			seq[j] = byte(rng.Intn(dna.NumBases))
		}
		s.Add("r", seq)
	}
	x, err := Build(&s, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range x.terms {
		entries, err := x.Postings(kmer.Term(term))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].ID <= entries[i-1].ID {
				t.Fatalf("term %d ids not ascending", term)
			}
		}
		for _, e := range entries {
			for j := 1; j < len(e.Offsets); j++ {
				if e.Offsets[j] <= e.Offsets[j-1] {
					t.Fatalf("term %d offsets not ascending", term)
				}
			}
		}
	}
}

// TestSeekMatchesSearch: the galloping lexicon search the coarse walk
// uses returns, from every starting slot at or before the answer, the
// slot a binary search over the whole lexicon returns — on a full
// lexicon (k = 3: every term indexed, the one-probe case), a sparse one
// (k = 9) and one with stopped terms missing.
func TestSeekMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, opts := range []Options{{K: 3}, {K: 9}, {K: 5, StopFraction: 0.2}} {
		idx, err := Build(randomStore(5, 30, 400), opts)
		if err != nil {
			t.Fatal(err)
		}
		n := len(idx.terms)
		if n == 0 {
			t.Fatalf("%+v: empty lexicon", opts)
		}
		probe := func(term uint64) {
			want := sort.Search(n, func(i int) bool { return idx.terms[i] >= term })
			froms := []int{0, want / 2, want - 3, want - 1, want}
			for _, from := range froms {
				if from < 0 {
					continue
				}
				if got := idx.seek(kmer.Term(term), from); got != want {
					t.Fatalf("%+v: seek(%d, from %d) = %d, binary search = %d", opts, term, from, got, want)
				}
			}
			// The merge-join's use: ListFrom agrees with ReaderStats and
			// hands out the lexicon's list.
			var a postings.Iterator
			df, size := idx.ReaderStats(kmer.Term(term), &a)
			list, gdf, next, _, err := idx.ListFrom(kmer.Term(term), want/2, nil)
			if err != nil || gdf != df || len(list) != size || next != want {
				t.Fatalf("%+v: ListFrom(%d) = (%d bytes, %d, %d, %v), ReaderStats = (%d, %d), slot %d", opts, term, len(list), gdf, next, err, df, size, want)
			}
			if df > 0 {
				if whole, _ := idx.listBytes(want, nil); !bytes.Equal(list, whole) {
					t.Fatalf("%+v: ListFrom(%d) returned other bytes than the lexicon's list", opts, term)
				}
			}
		}
		for i := 0; i < n; i++ {
			probe(idx.terms[i])
			probe(idx.terms[i] + 1)
		}
		probe(0)
		probe(idx.terms[n-1] + 1000)
		for i := 0; i < 500; i++ {
			probe(uint64(rng.Int63n(int64(idx.coder.NumTerms()))))
		}
	}
}

func TestParallelBuildDeterministic(t *testing.T) {
	s := randomStore(97, 100, 500)
	opts := Options{K: 6}
	serial := opts
	serial.Workers = 1
	parallel := opts
	parallel.Workers = 8

	a, err := Build(s, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(s, parallel)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.Save(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("serial and parallel builds serialize differently")
	}
}
