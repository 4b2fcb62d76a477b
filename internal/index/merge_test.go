package index

import (
	"bytes"
	"testing"

	"nucleodb/internal/db"
	"nucleodb/internal/dna"
)

// concatStores builds a store containing a's records then b's.
func concatStores(a, b *db.Store) *db.Store {
	var out db.Store
	for i := 0; i < a.Len(); i++ {
		out.Add(a.Desc(i), a.Sequence(i))
	}
	for i := 0; i < b.Len(); i++ {
		out.Add(b.Desc(i), b.Sequence(i))
	}
	return &out
}

func TestMergeEqualsCombinedBuild(t *testing.T) {
	sa := randomStore(141, 30, 300)
	sb := randomStore(142, 40, 250)
	for _, opts := range []Options{
		{K: 5},
		{K: 5, StoreOffsets: true},
	} {
		ia, err := Build(sa, opts)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := Build(sb, opts)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Merge(ia, ib)
		if err != nil {
			t.Fatal(err)
		}
		combined, err := Build(concatStores(sa, sb), opts)
		if err != nil {
			t.Fatal(err)
		}
		// The merged index must serialize byte-identically to the
		// combined build (no stopping involved here).
		var mb, cb bytes.Buffer
		if err := merged.Save(&mb); err != nil {
			t.Fatal(err)
		}
		if err := combined.Save(&cb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mb.Bytes(), cb.Bytes()) {
			t.Fatalf("opts %+v: merged index differs from combined build", opts)
		}
	}
}

func TestMergeRejectsMismatchedOptions(t *testing.T) {
	s := randomStore(143, 10, 200)
	a, err := Build(s, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(s, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a, b); err == nil {
		t.Error("mismatched K accepted")
	}
	c, err := Build(s, Options{K: 5, StoreOffsets: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a, c); err == nil {
		t.Error("mismatched offsets accepted")
	}
}

func TestMergeWithEmptySegment(t *testing.T) {
	s := randomStore(144, 20, 200)
	var empty db.Store
	a, err := Build(s, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(&empty, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(a, e)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSeqs() != a.NumSeqs() || m.NumTermsIndexed() != a.NumTermsIndexed() {
		t.Errorf("merge with empty changed shape: %d/%d", m.NumSeqs(), m.NumTermsIndexed())
	}
	// Order matters for ids: empty-first shifts nothing either.
	m2, err := Merge(e, a)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumSeqs() != a.NumSeqs() {
		t.Errorf("empty-first merge NumSeqs = %d", m2.NumSeqs())
	}
}

func TestMergeUnionsStopLists(t *testing.T) {
	// Two segments with different dominant terms stop different sets;
	// the merge carries the union.
	var sa, sb db.Store
	sa.Add("a", dna.MustEncode("AAAAAAAAAAAAAAAAAAAAAAAA"))
	sa.Add("a2", dna.MustEncode("ACGTACGTACGTACGT"))
	sb.Add("b", dna.MustEncode("CCCCCCCCCCCCCCCCCCCCCCCC"))
	sb.Add("b2", dna.MustEncode("ACGTACGTACGTACGT"))
	opts := Options{K: 4, StopFraction: 0.05}
	ia, err := Build(&sa, opts)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := Build(&sb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ia.NumStopped() == 0 || ib.NumStopped() == 0 {
		t.Skip("stopping did not trigger on this data")
	}
	m, err := Merge(ia, ib)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStopped() < ia.NumStopped() || m.NumStopped() < ib.NumStopped() {
		t.Errorf("merged stop list %d smaller than inputs %d/%d",
			m.NumStopped(), ia.NumStopped(), ib.NumStopped())
	}
}
