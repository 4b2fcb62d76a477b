package experiments

import (
	"bytes"
	"strings"
	"testing"

	"nucleodb/internal/compress"
)

// tiny returns a configuration small enough for unit tests (a fraction
// of a second per experiment) while keeping the effects visible.
func tiny() Config {
	return Config{
		Seed:       99,
		BaseBases:  300_000,
		ScaleBases: []int{100_000, 200_000},
		NumQueries: 6,
		QueryLen:   300,
		Divergence: 0.08,
		K:          9,
		Candidates: 50,
		TopN:       10,
	}
}

func TestE1Shapes(t *testing.T) {
	rows, err := E1(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("only %d rows", len(rows))
	}
	var prevK int
	var prevTerms int
	for i, r := range rows {
		if r.CompressedBytes <= 0 || r.RawBytes <= 0 {
			t.Errorf("row %d has zero sizes: %+v", i, r)
		}
		// Compression must beat the uncompressed equivalent.
		if r.CompressedBytes >= r.RawBytes {
			t.Errorf("k=%d offsets=%v compressed %d ≥ raw %d", r.K, r.Offsets, r.CompressedBytes, r.RawBytes)
		}
		// Longer intervals → more distinct terms.
		if r.K > prevK && prevTerms > 0 && r.DistinctTerms <= prevTerms {
			t.Errorf("distinct terms not increasing: k=%d %d vs %d", r.K, r.DistinctTerms, prevTerms)
		}
		prevK, prevTerms = r.K, r.DistinctTerms
	}
	// Offsets cost index size: for each k, the offsets=true row is
	// strictly larger.
	byK := map[int]map[bool]int{}
	for _, r := range rows {
		if byK[r.K] == nil {
			byK[r.K] = map[bool]int{}
		}
		byK[r.K][r.Offsets] = r.CompressedBytes
	}
	for k, m := range byK {
		if m[true] <= m[false] {
			t.Errorf("k=%d: offsets index %d not larger than offsets-free %d", k, m[true], m[false])
		}
	}
}

func TestE2Shapes(t *testing.T) {
	rows, err := E2(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	size := map[compress.Scheme]int{}
	for _, r := range rows {
		if r.Bytes <= 0 {
			t.Errorf("%v: zero size", r.Scheme)
		}
		size[r.Scheme] = r.Bytes
	}
	// The paper's ordering: Golomb with per-list parameters beats the
	// non-parameterised bit codes, which beat byte-aligned vbyte, which
	// beats fixed words.
	if size[compress.SchemeGolomb] > size[compress.SchemeGamma] {
		t.Errorf("golomb %d > gamma %d", size[compress.SchemeGolomb], size[compress.SchemeGamma])
	}
	if size[compress.SchemeGolomb] >= size[compress.SchemeVByte] {
		t.Errorf("golomb %d ≥ vbyte %d", size[compress.SchemeGolomb], size[compress.SchemeVByte])
	}
	if size[compress.SchemeVByte] >= size[compress.SchemeNone] {
		t.Errorf("vbyte %d ≥ none %d", size[compress.SchemeVByte], size[compress.SchemeNone])
	}
	if size[compress.SchemeRice] > size[compress.SchemeGamma] {
		t.Errorf("rice %d > gamma %d", size[compress.SchemeRice], size[compress.SchemeGamma])
	}
}

func TestE3Shapes(t *testing.T) {
	rows, err := E3(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E3Row{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	sw := byName["sw-scan (exhaustive)"]
	part := byName["partitioned (banded)"]
	if sw.MeanTime == 0 || part.MeanTime == 0 {
		t.Fatalf("missing methods: %+v", byName)
	}
	// The headline: several times faster than exhaustive search...
	if part.SpeedupSW < 3 {
		t.Errorf("partitioned speedup %.1f× < 3× over exhaustive SW", part.SpeedupSW)
	}
	// ...at near-exhaustive accuracy.
	if part.Recall < 0.85 {
		t.Errorf("partitioned recall %.2f < 0.85", part.Recall)
	}
	if sw.Recall < 0.999 {
		t.Errorf("gold standard recall against itself = %.3f", sw.Recall)
	}
}

func TestE4Shapes(t *testing.T) {
	rows, err := E4(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("only %d rows", len(rows))
	}
	// Recall is non-decreasing in the candidate budget and saturates
	// high.
	for i := 1; i < len(rows); i++ {
		if rows[i].Recall < rows[i-1].Recall-1e-9 {
			t.Errorf("recall decreased: %v", rows)
		}
	}
	if last := rows[len(rows)-1].Recall; last < 0.9 {
		t.Errorf("recall at max budget = %.2f, want ≥ 0.9", last)
	}
}

func TestE5Shapes(t *testing.T) {
	rows, err := E5(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].StopFraction != 0 || rows[0].TermsStopped != 0 {
		t.Fatalf("first row must be the unstopped baseline: %+v", rows[0])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TermsStopped <= rows[i-1].TermsStopped {
			t.Errorf("stopping not monotone: %+v", rows)
		}
		if rows[i].IndexBytes >= rows[0].IndexBytes {
			t.Errorf("stopping failed to shrink index: %d ≥ %d", rows[i].IndexBytes, rows[0].IndexBytes)
		}
	}
	// Mild stopping keeps recall close to baseline.
	if rows[1].Recall < rows[0].Recall-0.1 {
		t.Errorf("0.1%% stopping dropped recall from %.2f to %.2f", rows[0].Recall, rows[1].Recall)
	}
}

func TestE6Shapes(t *testing.T) {
	rows, err := E6(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Exhaustive time grows roughly with collection size; partitioned
	// stays faster at every size.
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("no speedup at %d bases: %+v", r.Bases, r)
		}
	}
	if rows[1].SWScanTime <= rows[0].SWScanTime {
		t.Errorf("sw-scan time did not grow with collection: %v vs %v",
			rows[1].SWScanTime, rows[0].SWScanTime)
	}
}

func TestE7Shapes(t *testing.T) {
	rows, err := E7(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E7Row{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	ascii := byName["ascii (text parse)"]
	packed := byName["2-bit packed (lossy)"]
	direct := byName["direct coding"]
	if !direct.Lossless || packed.Lossless {
		t.Error("losslessness flags wrong")
	}
	if direct.BitsPerBase > 2.3 {
		t.Errorf("direct coding %.2f bits/base, want ≤ 2.3", direct.BitsPerBase)
	}
	if ascii.BitsPerBase < 7.9 {
		t.Errorf("ascii %.2f bits/base", ascii.BitsPerBase)
	}
	if direct.Bytes >= ascii.Bytes/3 {
		t.Errorf("direct %d not ≪ ascii %d", direct.Bytes, ascii.Bytes)
	}
	// Decode throughput comparisons are noisy when the test binary
	// shares the machine; require only that direct decoding is in the
	// same league as text parsing (it is typically at parity or
	// faster), not strictly faster on this run.
	if direct.DecodeMBps < 0.5*ascii.DecodeMBps {
		t.Errorf("direct decode %.0f MB/s far below ascii %.0f MB/s",
			direct.DecodeMBps, ascii.DecodeMBps)
	}
}

func TestE8Shapes(t *testing.T) {
	rows, err := E8(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Recall < 0.5 {
			t.Errorf("%v recall %.2f implausibly low", r.Mode, r.Recall)
		}
	}
}

func TestE10Shapes(t *testing.T) {
	rows, err := E10(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("qlen=%d: speedup %.1f ≤ 1", r.QueryLen, r.Speedup)
		}
		if r.Recall < 0.7 {
			t.Errorf("qlen=%d: recall %.2f < 0.7", r.QueryLen, r.Recall)
		}
	}
	// Exhaustive cost grows with query length.
	if rows[len(rows)-1].SWScanTime <= rows[0].SWScanTime {
		t.Errorf("sw-scan time did not grow with query length: %v vs %v",
			rows[len(rows)-1].SWScanTime, rows[0].SWScanTime)
	}
}

func TestE11Shapes(t *testing.T) {
	rows, err := E11(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	mem, paged := rows[0], rows[1]
	if paged.ResidentBytes >= mem.ResidentBytes {
		t.Errorf("paged resident %d not below in-memory %d", paged.ResidentBytes, mem.ResidentBytes)
	}
	// Paged evaluation must stay within an order of magnitude of
	// in-memory on a warm cache.
	if paged.MeanTime > 10*mem.MeanTime {
		t.Errorf("paged %v ≫ in-memory %v", paged.MeanTime, mem.MeanTime)
	}
}

func TestE12Shapes(t *testing.T) {
	rows, err := E12(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	contiguous, spaced := rows[0], rows[1]
	// Equal weight → comparable index sizes (within 2×).
	if spaced.IndexBytes > 2*contiguous.IndexBytes {
		t.Errorf("spaced index %d ≫ contiguous %d", spaced.IndexBytes, contiguous.IndexBytes)
	}
	// The end-to-end rankings are comparable on the hard workload (the
	// decisive ≥1-hit sensitivity advantage is asserted at seed level
	// in internal/kmer); neither shape may collapse.
	if spaced.CoarseRecall < contiguous.CoarseRecall-0.25 {
		t.Errorf("spaced coarse recall %.3f far below contiguous %.3f",
			spaced.CoarseRecall, contiguous.CoarseRecall)
	}
	if spaced.CoarseRecall < 0.3 || contiguous.CoarseRecall < 0.3 {
		t.Errorf("coarse recall collapsed: spaced %.3f, contiguous %.3f",
			spaced.CoarseRecall, contiguous.CoarseRecall)
	}
}

func TestRunAllRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %s", want)
		}
	}
}
