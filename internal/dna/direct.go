package dna

import (
	"encoding/binary"
	"fmt"

	"nucleodb/internal/compress"
)

// DirectCoder implements the authors' direct-coding scheme ("cino") for
// lossless nucleotide storage: the bulk of each sequence is 2-bit packed
// — extremely fast to decode — while the rare IUPAC wildcards are pulled
// out into an exception list of (position gap, wildcard code) pairs,
// Golomb- and gamma-coded. Decompression unpacks the 2-bit stream and
// then patches the exceptions back in, so decode speed stays close to
// raw unpacking while the representation remains lossless.
//
// Layout of an encoded record:
//
//	uvarint  sequence length in bases (n)
//	uvarint  wildcard count (w)
//	uvarint  byte length of the exception block (0 when w = 0)
//	[exception block: gamma(golomb parameter b), then w × (golomb gap, 4-bit code-NumBases)]
//	⌈n/4⌉ bytes of 2-bit packed bases (wildcard slots hold the canonical base)
type DirectCoder struct {
	// scratch buffers reused across calls to avoid per-record allocation.
	w compress.BitWriter
}

// Encode appends the direct coding of the code-form sequence to dst and
// returns the extended slice. Encoding never fails for valid code-form
// input; invalid codes cause a panic, as elsewhere in this package.
func (dc *DirectCoder) Encode(dst []byte, codes []byte) []byte {
	n := len(codes)
	wilds := 0
	for _, c := range codes {
		if !ValidCode(c) {
			panic(fmt.Sprintf("dna: invalid nucleotide code %d", c))
		}
		if IsWildcard(c) {
			wilds++
		}
	}

	var hdr [3 * binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	k += binary.PutUvarint(hdr[k:], uint64(wilds))

	var exc []byte
	if wilds > 0 {
		dc.w.Reset()
		b := compress.GolombParameter(uint64(n), uint64(wilds))
		compress.PutGamma(&dc.w, b)
		prev := -1
		for i, c := range codes {
			if IsWildcard(c) {
				compress.PutGolomb(&dc.w, uint64(i-prev), b)
				dc.w.WriteBits(uint64(c-NumBases), 4)
				prev = i
			}
		}
		exc = dc.w.Bytes()
	}
	k += binary.PutUvarint(hdr[k:], uint64(len(exc)))

	dst = append(dst, hdr[:k]...)
	dst = append(dst, exc...)

	// 2-bit pack with wildcards canonicalised; the exception list
	// restores them on decode.
	packed, _ := Pack2Lossy(codes)
	return append(dst, packed...)
}

// Decode decodes one direct-coded record from buf, returning the
// code-form sequence and the number of bytes consumed.
func (dc *DirectCoder) Decode(buf []byte) (codes []byte, n int, err error) {
	seqLen, k1 := binary.Uvarint(buf)
	if k1 <= 0 {
		return nil, 0, fmt.Errorf("dna: direct coding: bad sequence length header")
	}
	pos := k1
	wilds, k2 := binary.Uvarint(buf[pos:])
	if k2 <= 0 {
		return nil, 0, fmt.Errorf("dna: direct coding: bad wildcard count header")
	}
	pos += k2
	excLen, k3 := binary.Uvarint(buf[pos:])
	if k3 <= 0 {
		return nil, 0, fmt.Errorf("dna: direct coding: bad exception length header")
	}
	pos += k3
	if uint64(len(buf)-pos) < excLen {
		return nil, 0, fmt.Errorf("dna: direct coding: truncated exception block")
	}
	exc := buf[pos : pos+int(excLen)]
	pos += int(excLen)

	// Bound the decoded length by the bytes actually present before
	// allocating: a corrupt header must not turn ten input bytes into a
	// multi-gigabyte make.
	if seqLen > uint64(len(buf)-pos)*4 {
		return nil, 0, fmt.Errorf("dna: direct coding: sequence length %d exceeds remaining data", seqLen)
	}
	packedLen := PackedLen(int(seqLen))
	if len(buf)-pos < packedLen {
		return nil, 0, fmt.Errorf("dna: direct coding: truncated base data: need %d bytes, have %d", packedLen, len(buf)-pos)
	}
	codes = make([]byte, seqLen)
	Unpack2Into(buf[pos:pos+packedLen], codes)
	pos += packedLen

	if wilds > 0 {
		r := compress.NewBitReader(exc)
		b, err := compress.GetGamma(r)
		if err != nil {
			return nil, 0, fmt.Errorf("dna: direct coding: %w", err)
		}
		at := -1
		for i := uint64(0); i < wilds; i++ {
			gap, err := compress.GetGolomb(r, b)
			if err != nil {
				return nil, 0, fmt.Errorf("dna: direct coding: %w", err)
			}
			code, err := r.ReadBits(4)
			if err != nil {
				return nil, 0, fmt.Errorf("dna: direct coding: %w", err)
			}
			if gap > seqLen {
				return nil, 0, fmt.Errorf("dna: direct coding: wildcard gap %d beyond sequence length %d", gap, seqLen)
			}
			at += int(gap)
			if at >= int(seqLen) {
				return nil, 0, fmt.Errorf("dna: direct coding: wildcard offset %d beyond sequence length %d", at, seqLen)
			}
			wc := byte(code) + NumBases
			if !ValidCode(wc) {
				return nil, 0, fmt.Errorf("dna: direct coding: invalid wildcard code %d", wc)
			}
			codes[at] = wc
		}
	}
	return codes, pos, nil
}
