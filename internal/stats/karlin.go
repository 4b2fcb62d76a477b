// Package stats implements Karlin–Altschul statistics for local
// alignment scores: the λ and K parameters of the extreme-value
// distribution that ungapped local alignment scores follow, and the
// bit-score / E-value conversions search tools report. λ and the
// relative entropy H are computed exactly from the scoring scheme and
// background base frequencies; K, whose closed form is impractical, is
// estimated by direct simulation of the null score distribution, the
// approach used to calibrate gapped statistics in practice.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"nucleodb/internal/align"
	"nucleodb/internal/dna"
)

// Params are the extreme-value parameters of a scoring system under a
// background model: P(S ≥ x) ≈ 1 − exp(−K·m·n·e^{−λx}) for a query of
// length m against a database of n total bases.
type Params struct {
	Lambda float64 // scale of the score distribution (nats per score unit)
	K      float64 // search-space correction constant
	H      float64 // relative entropy of the aligned-pair distribution
}

// Uniform is the uniform background base distribution.
var Uniform = [4]float64{0.25, 0.25, 0.25, 0.25}

// Lambda solves Σ pᵢpⱼ·exp(λ·s(i,j)) = 1 for λ > 0 by bisection. The
// equation has a unique positive root whenever the expected score is
// negative and a positive score is achievable — the standard
// requirements for local alignment statistics, validated here.
func Lambda(s align.Scoring, freqs [4]float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	expected := 0.0
	positive := false
	for i := byte(0); i < dna.NumBases; i++ {
		for j := byte(0); j < dna.NumBases; j++ {
			sc := float64(s.Score(i, j))
			expected += freqs[i] * freqs[j] * sc
			if sc > 0 && freqs[i] > 0 && freqs[j] > 0 {
				positive = true
			}
		}
	}
	if expected >= 0 {
		return 0, fmt.Errorf("stats: expected score %.3f is not negative; local alignment statistics undefined", expected)
	}
	if !positive {
		return 0, fmt.Errorf("stats: no achievable positive score")
	}

	f := func(lambda float64) float64 {
		sum := 0.0
		for i := byte(0); i < dna.NumBases; i++ {
			for j := byte(0); j < dna.NumBases; j++ {
				sum += freqs[i] * freqs[j] * math.Exp(lambda*float64(s.Score(i, j)))
			}
		}
		return sum - 1
	}
	// f(0) = 0 with f'(0) = E[score] < 0, and f → ∞ as λ grows, so the
	// positive root is bracketed by expanding hi until f(hi) > 0.
	lo, hi := 0.0, 0.5
	for f(hi) < 0 {
		lo = hi
		hi *= 2
		if hi > 1e3 {
			return 0, fmt.Errorf("stats: lambda did not bracket")
		}
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Entropy returns the relative entropy H of the target (aligned-pair)
// distribution against the background, in nats per aligned column.
func Entropy(s align.Scoring, freqs [4]float64, lambda float64) float64 {
	h := 0.0
	for i := byte(0); i < dna.NumBases; i++ {
		for j := byte(0); j < dna.NumBases; j++ {
			sc := float64(s.Score(i, j))
			q := freqs[i] * freqs[j] * math.Exp(lambda*sc)
			h += q * lambda * sc
		}
	}
	return h
}

// EstimateOptions tunes the K simulation.
type EstimateOptions struct {
	Seed    int64
	Samples int // random sequence pairs to draw
	Length  int // length of each random sequence
}

// DefaultEstimateOptions returns simulation settings that estimate the
// parameters within a factor of ~1.5 in well under a second.
func DefaultEstimateOptions() EstimateOptions {
	return EstimateOptions{Seed: 1, Samples: 80, Length: 200}
}

// gappedCache memoises gapped calibrations: they cost a simulation and
// search facades ask for the same (scoring, options) repeatedly.
var gappedCache = struct {
	sync.Mutex
	m map[gappedKey]Params
}{m: map[gappedKey]Params{}}

type gappedKey struct {
	s     align.Scoring
	freqs [4]float64
	opts  EstimateOptions
}

// EstimateGappedCached is EstimateGapped with process-wide
// memoisation.
func EstimateGappedCached(s align.Scoring, freqs [4]float64, opts EstimateOptions) (Params, error) {
	key := gappedKey{s, freqs, opts}
	gappedCache.Lock()
	if p, ok := gappedCache.m[key]; ok {
		gappedCache.Unlock()
		return p, nil
	}
	gappedCache.Unlock()
	p, err := EstimateGapped(s, freqs, opts)
	if err != nil {
		return Params{}, err
	}
	gappedCache.Lock()
	gappedCache.m[key] = p
	gappedCache.Unlock()
	return p, nil
}

// Estimate computes λ and H exactly and estimates K by simulation:
// maximal ungapped segment scores of random sequence pairs follow a
// Gumbel law whose location is ln(K·m·n)/λ, so K is recovered from the
// mean maximal score via the method of moments.
func Estimate(s align.Scoring, freqs [4]float64, opts EstimateOptions) (Params, error) {
	lambda, err := Lambda(s, freqs)
	if err != nil {
		return Params{}, err
	}
	h := Entropy(s, freqs, lambda)

	if opts.Samples <= 0 || opts.Length <= 0 {
		o := DefaultEstimateOptions()
		opts.Samples, opts.Length = o.Samples, o.Length
		if opts.Seed == 0 {
			opts.Seed = o.Seed
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	m := opts.Length
	const gamma = 0.5772156649015329 // Euler–Mascheroni
	sum := 0.0
	for t := 0; t < opts.Samples; t++ {
		a := randomSeq(rng, m, freqs)
		b := randomSeq(rng, m, freqs)
		sum += float64(maxSegmentScore(a, b, s))
	}
	mean := sum / float64(opts.Samples)
	// E[S] = (ln(K·m·n) + γ)/λ  ⇒  K = exp(λ·E[S] − γ)/(m·n).
	k := math.Exp(lambda*mean-gamma) / (float64(m) * float64(m))
	// Clamp to the plausible range; simulation noise on tiny sample
	// sizes must not produce degenerate statistics.
	if k < 1e-4 {
		k = 1e-4
	}
	if k > 1 {
		k = 1
	}
	return Params{Lambda: lambda, K: k, H: h}, nil
}

func randomSeq(rng *rand.Rand, n int, freqs [4]float64) []byte {
	cum := [4]float64{}
	acc := 0.0
	for i, f := range freqs {
		acc += f
		cum[i] = acc
	}
	seq := make([]byte, n)
	for i := range seq {
		r := rng.Float64() * acc
		switch {
		case r < cum[0]:
			seq[i] = dna.BaseA
		case r < cum[1]:
			seq[i] = dna.BaseC
		case r < cum[2]:
			seq[i] = dna.BaseG
		default:
			seq[i] = dna.BaseT
		}
	}
	return seq
}

// maxSegmentScore returns the best ungapped local alignment score of a
// against b: the maximal-scoring run over every diagonal (Kadane's
// scan per diagonal).
func maxSegmentScore(a, b []byte, s align.Scoring) int {
	best := 0
	for diag := -(len(a) - 1); diag < len(b); diag++ {
		run := 0
		i := 0
		j := diag
		if j < 0 {
			i = -j
			j = 0
		}
		for i < len(a) && j < len(b) {
			run += s.Score(a[i], b[j])
			if run < 0 {
				run = 0
			}
			if run > best {
				best = run
			}
			i++
			j++
		}
	}
	return best
}

// EstimateGapped calibrates λ and K for *gapped* local alignment by
// direct simulation, the approach production search tools use offline:
// maximal gapped local scores of random pairs follow a Gumbel law, so
// λ comes from the sample standard deviation (σ = π/(λ√6)) and K from
// the mean (E[S] = (ln(K·m·n) + γ)/λ). Gapped λ is smaller than the
// analytic ungapped λ — permissive gap costs let chance alignments
// accumulate higher scores — so E-values computed from ungapped
// parameters overstate significance; use this estimator for the
// statistics actually reported on gapped search results. H is reported
// from the ungapped theory (its gapped analogue has no closed form).
func EstimateGapped(s align.Scoring, freqs [4]float64, opts EstimateOptions) (Params, error) {
	lambdaU, err := Lambda(s, freqs)
	if err != nil {
		return Params{}, err
	}
	h := Entropy(s, freqs, lambdaU)

	if opts.Samples <= 0 || opts.Length <= 0 {
		o := DefaultEstimateOptions()
		opts.Samples, opts.Length = o.Samples, o.Length
		if opts.Seed == 0 {
			opts.Seed = o.Seed
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	m := opts.Length
	scores := make([]float64, opts.Samples)
	sum := 0.0
	for t := range scores {
		a := randomSeq(rng, m, freqs)
		b := randomSeq(rng, m, freqs)
		sc, _, _ := align.LocalScore(a, b, s)
		scores[t] = float64(sc)
		sum += scores[t]
	}
	mean := sum / float64(len(scores))
	varSum := 0.0
	for _, sc := range scores {
		d := sc - mean
		varSum += d * d
	}
	sd := math.Sqrt(varSum / float64(len(scores)-1))
	if sd <= 0 {
		return Params{}, fmt.Errorf("stats: degenerate gapped score distribution (sd %.3f)", sd)
	}
	const gamma = 0.5772156649015329
	lambda := math.Pi / (sd * math.Sqrt(6))
	// The gapped λ cannot exceed the ungapped one: gaps only add ways
	// to score. Clamp against simulation noise.
	if lambda > lambdaU {
		lambda = lambdaU
	}
	k := math.Exp(lambda*mean-gamma) / (float64(m) * float64(m))
	if k < 1e-6 {
		k = 1e-6
	}
	if k > 1 {
		k = 1
	}
	return Params{Lambda: lambda, K: k, H: h}, nil
}

// BitScore converts a raw score to bits: S' = (λS − ln K)/ln 2.
func (p Params) BitScore(raw int) float64 {
	return (p.Lambda*float64(raw) - math.Log(p.K)) / math.Ln2
}

// EValue returns the expected number of chance alignments with score
// at least raw for a query of m bases against n database bases:
// E = K·m·n·e^{−λS}.
func (p Params) EValue(raw, m, n int) float64 {
	return p.K * float64(m) * float64(n) * math.Exp(-p.Lambda*float64(raw))
}
