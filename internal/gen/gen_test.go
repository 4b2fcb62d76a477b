package gen

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nucleodb/internal/dna"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(50, 42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Error("same seed produced different collections")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig(200, 1)
	col, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Records) != 200 || len(col.FamilyOf) != 200 {
		t.Fatalf("got %d records, %d family entries", len(col.Records), len(col.FamilyOf))
	}
	for i, rec := range col.Records {
		if len(rec.Codes) < cfg.MinLength || len(rec.Codes) > cfg.MaxLength {
			t.Errorf("record %d length %d outside [%d,%d]", i, len(rec.Codes), cfg.MinLength, cfg.MaxLength)
		}
		for _, c := range rec.Codes {
			if !dna.ValidCode(c) {
				t.Fatalf("record %d contains invalid code %d", i, c)
			}
		}
		if rec.Desc == "" {
			t.Errorf("record %d has empty description", i)
		}
	}
}

func TestGenerateFamilies(t *testing.T) {
	cfg := DefaultConfig(100, 7)
	col, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	famSize := map[int]int{}
	for _, f := range col.FamilyOf {
		if f >= 0 {
			famSize[f]++
		}
	}
	if len(famSize) == 0 {
		t.Fatal("no families generated")
	}
	multi := 0
	for _, n := range famSize {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no family has more than one member")
	}
}

func TestFamilyRecords(t *testing.T) {
	col := &Collection{FamilyOf: []int{0, 0, 1, -1, 0}}
	if got := col.FamilyRecords(0); !reflect.DeepEqual(got, []int{0, 1, 4}) {
		t.Errorf("FamilyRecords(0) = %v", got)
	}
	if got := col.FamilyRecords(-1); got != nil {
		t.Errorf("FamilyRecords(-1) = %v", got)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{NumSequences: 0},
		func() Config { c := DefaultConfig(10, 0); c.MeanLength = -1; return c }(),
		func() Config { c := DefaultConfig(10, 0); c.BaseFreq = [4]float64{1, 1, 1, 1}; return c }(),
		func() Config { c := DefaultConfig(10, 0); c.WildcardRate = 0.9; return c }(),
		func() Config { c := DefaultConfig(10, 0); c.MaxDivergence = 2; return c }(),
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBaseComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	freq := [4]float64{0.4, 0.1, 0.1, 0.4}
	seq := RandomSequence(rng, 100000, freq, 0)
	var counts [4]int
	for _, c := range seq {
		counts[c]++
	}
	for b, want := range freq {
		got := float64(counts[b]) / float64(len(seq))
		if math.Abs(got-want) > 0.02 {
			t.Errorf("base %d frequency %.3f, want %.3f", b, got, want)
		}
	}
}

func TestWildcardRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := RandomSequence(rng, 100000, [4]float64{0.25, 0.25, 0.25, 0.25}, 0.01)
	rate := float64(dna.CountWildcards(seq)) / float64(len(seq))
	if math.Abs(rate-0.01) > 0.005 {
		t.Errorf("wildcard rate %.4f, want ≈0.01", rate)
	}
}

func TestMutateRates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := RandomSequence(rng, 20000, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)
	m := MutationModel{SubstitutionRate: 0.1}
	out := Mutate(rng, src, m)
	if len(out) != len(src) {
		t.Fatalf("substitution-only mutation changed length %d → %d", len(src), len(out))
	}
	diff := 0
	for i := range src {
		if src[i] != out[i] {
			diff++
		}
	}
	rate := float64(diff) / float64(len(src))
	if math.Abs(rate-0.1) > 0.02 {
		t.Errorf("substitution rate %.3f, want ≈0.1", rate)
	}
}

func TestMutateIndels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := RandomSequence(rng, 10000, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)
	ins := Mutate(rng, src, MutationModel{InsertionRate: 0.05})
	if len(ins) <= len(src) {
		t.Errorf("insertion-only mutation did not grow: %d → %d", len(src), len(ins))
	}
	del := Mutate(rng, src, MutationModel{DeletionRate: 0.05})
	if len(del) >= len(src) {
		t.Errorf("deletion-only mutation did not shrink: %d → %d", len(src), len(del))
	}
}

func TestMutateZeroModelIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := RandomSequence(rng, 1000, [4]float64{0.25, 0.25, 0.25, 0.25}, 0.01)
	out := Mutate(rng, src, MutationModel{})
	if !reflect.DeepEqual(out, src) {
		t.Error("zero mutation model altered the sequence")
	}
}

func TestSubstituteAlwaysChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for b := byte(0); b < dna.NumBases; b++ {
		for i := 0; i < 100; i++ {
			if got := substitute(rng, b); got == b {
				t.Fatalf("substitute(%d) returned the same base", b)
			}
		}
	}
}

func TestFragment(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := RandomSequence(rng, 1000, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)
	frag := Fragment(rng, src, 100)
	if len(frag) != 100 {
		t.Fatalf("fragment length %d, want 100", len(frag))
	}
	// The fragment must be a contiguous substring of src.
	found := false
	for start := 0; start+100 <= len(src); start++ {
		if reflect.DeepEqual(src[start:start+100], frag) {
			found = true
			break
		}
	}
	if !found {
		t.Error("fragment is not a substring of its source")
	}
	// Short source: whole copy.
	short := src[:10]
	whole := Fragment(rng, short, 100)
	if !reflect.DeepEqual(whole, short) {
		t.Error("fragment of short source is not the whole source")
	}
	whole[0] = (whole[0] + 1) % dna.NumBases
	if short[0] == whole[0] {
		t.Error("fragment aliases its source")
	}
}

func TestEmbedDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	src := RandomSequence(rng, 500, uniform, 0)
	out := EmbedDomain(rng, src, 100, 150, 600, MutationModel{})
	if len(out) != 600 {
		t.Fatalf("length %d, want 600", len(out))
	}
	// With a zero mutation model the exact domain must appear in out.
	domain := src[100:250]
	found := false
	for start := 0; start+len(domain) <= len(out); start++ {
		if reflect.DeepEqual(out[start:start+len(domain)], domain) {
			found = true
			break
		}
	}
	if !found {
		t.Error("unmutated domain not embedded verbatim")
	}
}

func TestEmbedDomainClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	src := RandomSequence(rng, 100, uniform, 0)
	// Domain extending past the source is clamped; total shorter than
	// the domain is raised.
	out := EmbedDomain(rng, src, 80, 50, 10, MutationModel{})
	if len(out) != 20 {
		t.Errorf("clamped output length %d, want 20", len(out))
	}
	out = EmbedDomain(rng, src, -5, 30, 50, MutationModel{})
	if len(out) != 50 {
		t.Errorf("negative-start output length %d, want 50", len(out))
	}
}

func TestMakeWorkload(t *testing.T) {
	col, err := Generate(DefaultConfig(100, 9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := WorkloadConfig{Seed: 10, NumHomologous: 40, NumRandom: 10, QueryLength: 400, Divergence: 0.10}
	qs, err := MakeWorkload(col, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != cfg.NumHomologous+cfg.NumRandom {
		t.Fatalf("got %d queries, want %d", len(qs), cfg.NumHomologous+cfg.NumRandom)
	}
	hom, rnd := 0, 0
	for _, q := range qs {
		if q.SourceRecord >= 0 {
			hom++
			if q.Family < 0 {
				t.Errorf("homologous query %s has no family", q.Name)
			}
			if col.FamilyOf[q.SourceRecord] != q.Family {
				t.Errorf("query %s family mismatch", q.Name)
			}
		} else {
			rnd++
		}
		if len(q.Codes) == 0 {
			t.Errorf("query %s is empty", q.Name)
		}
	}
	if hom != cfg.NumHomologous || rnd != cfg.NumRandom {
		t.Errorf("query mix %d/%d, want %d/%d", hom, rnd, cfg.NumHomologous, cfg.NumRandom)
	}
}

func TestMakeWorkloadNoFamilies(t *testing.T) {
	cfg := DefaultConfig(10, 11)
	cfg.FamilyCount = 0
	col, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadConfig{Seed: 1, NumHomologous: 40, NumRandom: 10, QueryLength: 400, Divergence: 0.10}
	if _, err := MakeWorkload(col, w); err == nil {
		t.Error("workload without families accepted")
	}
	w.NumHomologous = 0
	if _, err := MakeWorkload(col, w); err != nil {
		t.Errorf("random-only workload rejected: %v", err)
	}
}

func TestTotalBases(t *testing.T) {
	col := &Collection{Records: []dna.Record{
		{Codes: make([]byte, 10)},
		{Codes: make([]byte, 5)},
	}}
	if got := col.TotalBases(); got != 15 {
		t.Errorf("TotalBases = %d, want 15", got)
	}
}
