package stats

import (
	"math"
	"math/rand"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/dna"
)

func TestLambdaSatisfiesEquation(t *testing.T) {
	s := align.DefaultScoring()
	lambda, err := Lambda(s, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if lambda <= 0 {
		t.Fatalf("lambda = %v", lambda)
	}
	// Plug back: Σ pᵢpⱼ e^{λs(i,j)} must be 1.
	sum := 0.0
	for i := byte(0); i < dna.NumBases; i++ {
		for j := byte(0); j < dna.NumBases; j++ {
			sum += Uniform[i] * Uniform[j] * math.Exp(lambda*float64(s.Score(i, j)))
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("equation residual = %v", sum-1)
	}
}

func TestLambdaKnownValue(t *testing.T) {
	// For match +1 / mismatch −1 on uniform DNA:
	// (1/4)e^λ + (3/4)e^{−λ} = 1 ⇒ e^λ = 3 ⇒ λ = ln 3.
	s := align.Scoring{Match: 1, Mismatch: 1, GapOpen: 1, GapExtend: 1}
	lambda, err := Lambda(s, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log(3); math.Abs(lambda-want) > 1e-9 {
		t.Errorf("lambda = %v, want ln3 = %v", lambda, want)
	}
}

func TestLambdaRejectsPositiveExpectation(t *testing.T) {
	// Match-heavy scoring with positive expected score: statistics
	// undefined.
	s := align.Scoring{Match: 10, Mismatch: 1, GapOpen: 1, GapExtend: 1}
	if _, err := Lambda(s, Uniform); err == nil {
		t.Error("positive-expectation scoring accepted")
	}
}

func TestEntropyPositive(t *testing.T) {
	s := align.DefaultScoring()
	lambda, err := Lambda(s, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	h := Entropy(s, Uniform, lambda)
	if h <= 0 {
		t.Errorf("entropy = %v, want > 0", h)
	}
}

func TestEstimatePlausible(t *testing.T) {
	p, err := Estimate(align.DefaultScoring(), Uniform, EstimateOptions{Seed: 5, Samples: 40, Length: 200})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lambda <= 0 || p.H <= 0 {
		t.Fatalf("params = %+v", p)
	}
	// K for DNA scorings lands in a broad but bounded range.
	if p.K < 1e-4 || p.K > 1 {
		t.Errorf("K = %v outside [1e-4, 1]", p.K)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	opts := EstimateOptions{Seed: 9, Samples: 20, Length: 150}
	a, err := Estimate(align.DefaultScoring(), Uniform, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(align.DefaultScoring(), Uniform, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed gave %+v and %+v", a, b)
	}
}

func TestBitScoreMonotone(t *testing.T) {
	p := Params{Lambda: 0.19, K: 0.1}
	if p.BitScore(100) <= p.BitScore(50) {
		t.Error("bit score not monotone in raw score")
	}
}

func TestEValueBehaviour(t *testing.T) {
	p := Params{Lambda: 0.19, K: 0.1}
	// E-value decreases with score, increases with search space.
	if p.EValue(200, 400, 1e6) >= p.EValue(100, 400, 1e6) {
		t.Error("E-value not decreasing in score")
	}
	if p.EValue(100, 400, 2e6) <= p.EValue(100, 400, 1e6) {
		t.Error("E-value not increasing in database size")
	}
}

func TestEValueCalibration(t *testing.T) {
	// The real test of the statistics: on random data, the number of
	// (query, subject) pairs with E-value ≤ 1 should be small, and
	// scores of true matches should get tiny E-values.
	p, err := Estimate(align.DefaultScoring(), Uniform, EstimateOptions{Seed: 6, Samples: 60, Length: 250})
	if err != nil {
		t.Fatal(err)
	}
	// A 400-base perfect self-match against a 1 Mbase database.
	perfect := 400 * align.DefaultScoring().Match
	if e := p.EValue(perfect, 400, 1_000_000); e > 1e-30 {
		t.Errorf("perfect match E-value %v not tiny", e)
	}
	// A noise-level score (a 12-base exact run happens constantly).
	if e := p.EValue(12*align.DefaultScoring().Match, 400, 1_000_000); e < 1 {
		t.Errorf("noise-level score E-value %v < 1", e)
	}
}

func TestEstimateGapped(t *testing.T) {
	s := align.DefaultScoring()
	opts := EstimateOptions{Seed: 7, Samples: 80, Length: 200}
	gapped, err := EstimateGapped(s, Uniform, opts)
	if err != nil {
		t.Fatal(err)
	}
	ungapped, err := Estimate(s, Uniform, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gapped.Lambda <= 0 || gapped.Lambda > ungapped.Lambda {
		t.Errorf("gapped λ %.4f outside (0, ungapped %.4f]", gapped.Lambda, ungapped.Lambda)
	}
	if gapped.K < 1e-6 || gapped.K > 1 {
		t.Errorf("gapped K %v outside [1e-6, 1]", gapped.K)
	}
	if gapped.H != ungapped.H {
		t.Errorf("H differs: %v vs %v", gapped.H, ungapped.H)
	}
}

func TestGappedCalibrationSane(t *testing.T) {
	// The whole point of gapped calibration: a typical *random* top
	// score must not look wildly significant. Draw fresh random pairs
	// (different seed from the calibration) and check the best gapped
	// score has an E-value of order one for that search space.
	rng := rand.New(rand.NewSource(99))
	s := align.DefaultScoring()
	p, err := EstimateGappedCached(s, Uniform, DefaultEstimateOptions())
	if err != nil {
		t.Fatal(err)
	}
	const m, trials = 200, 20
	for i := 0; i < trials; i++ {
		a := randomSeq(rng, m, Uniform)
		b := randomSeq(rng, m, Uniform)
		sc, _, _ := align.LocalScore(a, b, s)
		e := p.EValue(sc, m, m)
		if e < 1e-3 {
			t.Fatalf("random pair score %d got E = %g; gapped calibration claims chance events are significant", sc, e)
		}
	}
	// And a perfect long match stays overwhelmingly significant.
	if e := p.EValue(400*s.Match, 400, 1_000_000); e > 1e-20 {
		t.Errorf("perfect-match E-value %g not tiny under gapped parameters", e)
	}
}

func TestEstimateGappedCachedStable(t *testing.T) {
	opts := EstimateOptions{Seed: 11, Samples: 30, Length: 120}
	a, err := EstimateGappedCached(align.DefaultScoring(), Uniform, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateGappedCached(align.DefaultScoring(), Uniform, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cache returned different parameters: %+v vs %+v", a, b)
	}
}

func TestLambdaSkewedBackground(t *testing.T) {
	// AT-rich background (GenBank-like): λ still solves the equation
	// and shifts relative to uniform (more chance matches → smaller λ
	// for the same scores).
	s := align.DefaultScoring()
	skew := [4]float64{0.35, 0.15, 0.15, 0.35}
	lambda, err := Lambda(s, skew)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := byte(0); i < dna.NumBases; i++ {
		for j := byte(0); j < dna.NumBases; j++ {
			sum += skew[i] * skew[j] * math.Exp(lambda*float64(s.Score(i, j)))
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("skewed equation residual %v", sum-1)
	}
	uniform, err := Lambda(s, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if lambda >= uniform {
		t.Errorf("skewed λ %.4f not below uniform %.4f", lambda, uniform)
	}
}

func TestMaxSegmentScore(t *testing.T) {
	s := align.DefaultScoring()
	a := dna.MustEncode("ACGTACGT")
	// Exact copy: whole length matches on the main diagonal.
	if got := maxSegmentScore(a, a, s); got != 8*s.Match {
		t.Errorf("self segment score = %d, want %d", got, 8*s.Match)
	}
	// Disjoint content: nothing positive except chance 1-base matches.
	b := dna.MustEncode("TTTT")
	c := dna.MustEncode("CCCC")
	if got := maxSegmentScore(b, c, s); got != 0 {
		t.Errorf("disjoint segment score = %d", got)
	}
	// Shifted copy: best segment sits off the main diagonal.
	d := dna.MustEncode("GGACGTACGT")
	if got := maxSegmentScore(a, d, s); got != 8*s.Match {
		t.Errorf("shifted segment score = %d, want %d", got, 8*s.Match)
	}
}
