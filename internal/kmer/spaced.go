package kmer

import (
	"fmt"
	"strings"

	"nucleodb/internal/dna"
)

// Spaced seeds (PatternHunter, Ma–Tromp–Li 2002): instead of sampling
// k contiguous bases, a seed samples the '1' positions of a mask like
// 1110100101. At equal weight (number of sampled positions, hence
// equal vocabulary and similar index size) spaced seeds are more
// sensitive to diverged homologies than contiguous ones, because
// overlapping windows share fewer sampled positions and their hit
// events are less correlated. The citing literature applies exactly
// this refinement to interval indexes like this system's.

// NewSpacedCoder returns a coder sampling the '1' positions of mask.
// The mask must start and end with '1' (otherwise it is equivalent to
// a shorter mask), contain only '0' and '1', and have weight ≤ MaxK.
// A mask of all ones is exactly the contiguous coder of that length.
func NewSpacedCoder(mask string) (*Coder, error) {
	if len(mask) == 0 {
		return nil, fmt.Errorf("kmer: empty spaced mask")
	}
	if mask[0] != '1' || mask[len(mask)-1] != '1' {
		return nil, fmt.Errorf("kmer: spaced mask %q must start and end with '1'", mask)
	}
	var sample []int
	for i := 0; i < len(mask); i++ {
		switch mask[i] {
		case '1':
			sample = append(sample, i)
		case '0':
		default:
			return nil, fmt.Errorf("kmer: spaced mask %q has invalid character %q", mask, mask[i])
		}
	}
	w := len(sample)
	if w < 1 || w > MaxK {
		return nil, fmt.Errorf("kmer: spaced mask weight %d outside [1,%d]", w, MaxK)
	}
	c := &Coder{k: w, span: len(mask), mask: (1 << uint(2*w)) - 1}
	if len(mask) > w {
		c.sample = sample
	}
	return c, nil
}

// Mask returns the coder's mask string: all ones for a contiguous
// coder.
func (c *Coder) Mask() string {
	if c.sample == nil {
		return strings.Repeat("1", c.k)
	}
	mask := make([]byte, c.span)
	for i := range mask {
		mask[i] = '0'
	}
	for _, p := range c.sample {
		mask[p] = '1'
	}
	return string(mask)
}

// Spaced reports whether the coder samples non-contiguous positions.
func (c *Coder) Spaced() bool { return c.sample != nil }

// Span returns the window length an interval occupies in the sequence:
// equal to K for contiguous coders, the mask length for spaced ones.
func (c *Coder) Span() int { return c.span }

// encodeSpaced packs the sampled positions of the window starting at
// codes[at].
func (c *Coder) encodeSpaced(codes []byte, at int) Term {
	var t uint64
	for _, p := range c.sample {
		b := codes[at+p]
		if !dna.IsBase(b) {
			b = dna.CanonicalBase(b)
		}
		t = t<<2 | uint64(b)
	}
	return Term(t)
}
