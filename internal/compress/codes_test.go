package compress

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGammaKnownValues(t *testing.T) {
	// gamma(1) = "0", gamma(2) = "10 0", gamma(3) = "10 1", gamma(4) = "110 00"
	w := NewBitWriter(8)
	for v := uint64(1); v <= 4; v++ {
		PutGamma(w, v)
	}
	// 0 100 101 11000 → 0100 1011 1000 = 0x4B 0x80
	got := w.Bytes()
	want := []byte{0x4B, 0x80}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("gamma(1..4) bytes = %x, want %x", got, want)
	}
}

func TestGammaRoundTrip(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 5, 7, 8, 100, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)}
	w := NewBitWriter(64)
	for _, v := range vals {
		PutGamma(w, v)
	}
	r := NewBitReader(w.Bytes())
	for _, want := range vals {
		v, err := GetGamma(r)
		if err != nil || v != want {
			t.Fatalf("GetGamma = %d, %v; want %d", v, err, want)
		}
	}
}

func TestGammaLen(t *testing.T) {
	cases := map[uint64]int{1: 1, 2: 3, 3: 3, 4: 5, 7: 5, 8: 7}
	for v, want := range cases {
		if got := GammaLen(v); got != want {
			t.Errorf("GammaLen(%d) = %d, want %d", v, got, want)
		}
		w := NewBitWriter(8)
		PutGamma(w, v)
		if w.BitLen() != want {
			t.Errorf("actual gamma bits for %d = %d, want %d", v, w.BitLen(), want)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	vals := []uint64{1, 2, 3, 16, 17, 1000, 1 << 32, ^uint64(0)}
	w := NewBitWriter(64)
	for _, v := range vals {
		PutDelta(w, v)
	}
	r := NewBitReader(w.Bytes())
	for _, want := range vals {
		v, err := GetDelta(r)
		if err != nil || v != want {
			t.Fatalf("GetDelta = %d, %v; want %d", v, err, want)
		}
	}
}

func TestGolombRoundTrip(t *testing.T) {
	for _, b := range []uint64{1, 2, 3, 4, 7, 8, 10, 100, 1000} {
		vals := []uint64{1, 2, 3, b, b + 1, 2*b + 1, 10 * b}
		w := NewBitWriter(64)
		for _, v := range vals {
			PutGolomb(w, v, b)
		}
		r := NewBitReader(w.Bytes())
		for _, want := range vals {
			v, err := GetGolomb(r, b)
			if err != nil || v != want {
				t.Fatalf("b=%d GetGolomb = %d, %v; want %d", b, v, err, want)
			}
		}
	}
}

func TestGolombLenMatchesEncoding(t *testing.T) {
	for _, b := range []uint64{1, 3, 8, 13} {
		for _, v := range []uint64{1, 2, 3, 5, 8, 13, 50} {
			w := NewBitWriter(16)
			PutGolomb(w, v, b)
			if got := GolombLen(v, b); got != w.BitLen() {
				t.Errorf("GolombLen(%d,%d) = %d, actual %d", v, b, got, w.BitLen())
			}
		}
	}
}

func TestGolombParameter(t *testing.T) {
	// Mean gap 10 → b ≈ 7.
	if b := GolombParameter(1000, 100); b < 5 || b > 9 {
		t.Errorf("GolombParameter(1000,100) = %d, want ≈7", b)
	}
	if b := GolombParameter(10, 0); b != 1 {
		t.Errorf("GolombParameter with zero occurrences = %d, want 1", b)
	}
	if b := GolombParameter(1, 100); b != 1 {
		t.Errorf("dense list parameter = %d, want 1", b)
	}
}

// riceParameterExact is RiceParameter's definition in exact rationals,
// independent of its integer arithmetic: ⌊log₂ max(1, ⌈0.69·u/n⌉)⌋, and
// 0 for no occurrences.
func riceParameterExact(u, n uint64) uint {
	if n == 0 {
		return 0
	}
	r := new(big.Rat).SetFrac(new(big.Int).SetUint64(u), new(big.Int).SetUint64(n))
	r.Mul(r, big.NewRat(69, 100))
	b := new(big.Int).Add(r.Num(), r.Denom()) // ⌈num/den⌉ = ⌊(num + den − 1)/den⌋
	b.Sub(b, big.NewInt(1))
	b.Quo(b, r.Denom())
	if b.Sign() == 0 {
		b.SetInt64(1)
	}
	return uint(b.BitLen() - 1)
}

// TestRiceParameter pins the parameter the index's offset code is
// decoded with: a change to it would round-trip through every postings
// suite and still misread every index already written.
func TestRiceParameter(t *testing.T) {
	for _, c := range []struct {
		u, n uint64
		want uint
	}{
		{0, 0, 0},
		{5, 0, 0},
		{0, 1, 0},
		{3, 10, 0}, // more occurrences than positions
		{1, 1, 0},
		{100, 69, 0},   // 0.69·u/n = 1 exactly
		{200, 69, 1},   // = 2
		{400, 69, 2},   // = 4
		{399, 69, 2},   // 3.99, rounded up to 4
		{401, 69, 2},   // 4.01, rounded up to 5
		{350, 69, 2},   // 3.5 rounds up to 4: the ceiling, not the real, is logged
		{299, 69, 1},   // 2.99 → 3
		{100, 1, 6},    // 69
		{20000, 1, 13}, // 13 800: a gene
		{1<<31 - 1, 1, 30},
		{1<<31 - 1, 100, 23},
		{1<<31 - 1, 1<<31 - 1, 0},
		{1<<56 - 1, 1, 55},
		{1<<56 - 1, 1<<56 - 1, 0},
	} {
		if got := RiceParameter(c.u, c.n); got != c.want {
			t.Errorf("RiceParameter(%d, %d) = %d, want %d", c.u, c.n, got, c.want)
		}
		if exact := riceParameterExact(c.u, c.n); exact != c.want {
			t.Errorf("table row (%d, %d): exact definition gives %d, row says %d", c.u, c.n, exact, c.want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		u := rng.Uint64() >> (8 + rng.Intn(56))
		n := rng.Uint64() >> (8 + rng.Intn(56))
		if i%2 == 0 {
			u, n = uint64(rng.Int31()), 1+uint64(rng.Intn(300)) // a sequence length and a count
		}
		if got, want := RiceParameter(u, n), riceParameterExact(u, n); got != want {
			t.Fatalf("RiceParameter(%d, %d) = %d, exact %d", u, n, got, want)
		}
	}
}

func TestRiceRoundTrip(t *testing.T) {
	for _, k := range []uint{0, 1, 3, 7} {
		vals := []uint64{1, 2, 3, 100, 1 << 20}
		w := NewBitWriter(64)
		for _, v := range vals {
			PutRice(w, v, k)
		}
		r := NewBitReader(w.Bytes())
		for _, want := range vals {
			v, err := GetRice(r, k)
			if err != nil || v != want {
				t.Fatalf("k=%d GetRice = %d, %v; want %d", k, v, err, want)
			}
		}
	}
}

func TestPropertyAllCodesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + local.Intn(100)
		vals := make([]uint64, n)
		for i := range vals {
			// Mix of small (typical gaps) and occasional large values.
			// Large values stay within the universe the Golomb/Rice
			// parameters are derived from, as real gaps do; otherwise
			// the unary quotient becomes pathologically long.
			if local.Intn(10) == 0 {
				vals[i] = 1 + local.Uint64()%(1<<20)
			} else {
				vals[i] = 1 + local.Uint64()%64
			}
		}
		b := GolombParameter(1<<20, uint64(n))
		k := RiceParameter(1<<20, uint64(n))

		w := NewBitWriter(n * 4)
		for _, v := range vals {
			PutGamma(w, v)
			PutDelta(w, v)
			PutGolomb(w, v, b)
			PutRice(w, v, k)
		}
		r := NewBitReader(w.Bytes())
		for _, want := range vals {
			if v, err := GetGamma(r); err != nil || v != want {
				return false
			}
			if v, err := GetDelta(r); err != nil || v != want {
				return false
			}
			if v, err := GetGolomb(r, b); err != nil || v != want {
				return false
			}
			if v, err := GetRice(r, k); err != nil || v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGolombBeatsGammaOnUniformGaps(t *testing.T) {
	// The paper's rationale for Golomb-coding identifier gaps: for gaps
	// near a known mean, Golomb with the right parameter is smaller
	// than gamma. Check total coded size on synthetic uniform gaps.
	rng := rand.New(rand.NewSource(8))
	const n, meanGap = 2000, 50
	gaps := make([]uint64, n)
	for i := range gaps {
		gaps[i] = 1 + uint64(rng.Intn(2*meanGap-1)) // mean ≈ meanGap
	}
	b := GolombParameter(n*meanGap, n)
	var gammaBits, golombBits int
	for _, g := range gaps {
		gammaBits += GammaLen(g)
		golombBits += GolombLen(g, b)
	}
	if golombBits >= gammaBits {
		t.Errorf("golomb %d bits ≥ gamma %d bits on uniform gaps", golombBits, gammaBits)
	}
}
