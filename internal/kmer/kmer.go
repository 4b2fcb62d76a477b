// Package kmer implements fixed-length substrings — the paper's
// "intervals" — as the indexing vocabulary: encoding an interval of n
// bases into an integer term, rolling extraction over a sequence, and
// collection-level interval statistics used to size the index and to
// choose stopping thresholds.
package kmer

import (
	"fmt"

	"nucleodb/internal/dna"
)

// MaxK is the longest supported interval: 2 bits per base must fit in a
// uint64 term with room left to avoid overflowing the lexicon array.
const MaxK = 16

// Term is an integer-encoded interval: k bases packed 2 bits each, first
// base in the most significant position so that terms sort in the same
// order as the strings they encode.
type Term uint64

// Coder encodes and enumerates intervals: k sampled positions within a
// window of span bases. Contiguous coders (the paper's intervals) have
// span == k; spaced coders (see NewSpacedCoder) sample a subset of a
// longer window.
type Coder struct {
	k      int
	span   int
	sample []int // sampled window offsets; nil for contiguous
	mask   uint64
}

// NewCoder returns a coder for contiguous intervals of length k,
// 1 ≤ k ≤ MaxK.
func NewCoder(k int) (*Coder, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("kmer: interval length %d outside [1,%d]", k, MaxK)
	}
	return &Coder{k: k, span: k, mask: (1 << uint(2*k)) - 1}, nil
}

// MustCoder is NewCoder for static configuration; it panics on error.
func MustCoder(k int) *Coder {
	c, err := NewCoder(k)
	if err != nil {
		panic(err)
	}
	return c
}

// K returns the interval weight: the number of sampled bases, which is
// the interval length for contiguous coders.
func (c *Coder) K() int { return c.k }

// NumTerms returns the size of the interval vocabulary, 4^k.
func (c *Coder) NumTerms() uint64 { return 1 << uint(2*c.k) }

// Encode packs the first window of codes into a Term (the sampled
// positions for spaced coders). Wildcards are canonicalised to a base;
// the same rule is applied at query time so the coarse phase stays
// consistent. It panics if codes is shorter than the window span.
func (c *Coder) Encode(codes []byte) Term {
	if len(codes) < c.span {
		panic(fmt.Sprintf("kmer: encode needs %d bases, have %d", c.span, len(codes)))
	}
	if c.sample != nil {
		return c.encodeSpaced(codes, 0)
	}
	var t uint64
	for _, b := range codes[:c.k] {
		if !dna.IsBase(b) {
			b = dna.CanonicalBase(b)
		}
		t = t<<2 | uint64(b)
	}
	return Term(t)
}

// Decode expands a term back into k base codes.
func (c *Coder) Decode(t Term) []byte {
	codes := make([]byte, c.k)
	v := uint64(t)
	for i := c.k - 1; i >= 0; i-- {
		codes[i] = byte(v & 3)
		v >>= 2
	}
	return codes
}

// String renders a term as its k-letter string, for diagnostics.
func (c *Coder) String(t Term) string { return dna.String(c.Decode(t)) }

// Extract appends the term of every overlapping interval of the
// sequence to dst, in sequence order, and returns the extended slice.
// A sequence shorter than the window span yields no intervals.
func (c *Coder) Extract(dst []Term, codes []byte) []Term {
	c.ExtractFunc(codes, func(_ int, t Term) { dst = append(dst, t) })
	return dst
}

// ExtractFunc calls fn(position, term) for every overlapping interval,
// where position is the offset of the interval window's first base. It
// avoids materialising the term slice on the indexing hot path.
func (c *Coder) ExtractFunc(codes []byte, fn func(pos int, t Term)) {
	if len(codes) < c.span {
		return
	}
	if c.sample != nil {
		for at := 0; at+c.span <= len(codes); at++ {
			fn(at, c.encodeSpaced(codes, at))
		}
		return
	}
	// Contiguous fast path: rolling encode, one shift per base.
	var t uint64
	for i, b := range codes {
		if !dna.IsBase(b) {
			b = dna.CanonicalBase(b)
		}
		t = (t<<2 | uint64(b)) & c.mask
		if i >= c.k-1 {
			fn(i-c.k+1, Term(t))
		}
	}
}

// NumIntervals returns the number of overlapping interval windows in a
// sequence of the given length: max(0, length−span+1).
func (c *Coder) NumIntervals(length int) int {
	if length < c.span {
		return 0
	}
	return length - c.span + 1
}
