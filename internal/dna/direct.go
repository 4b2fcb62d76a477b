package dna

import (
	"encoding/binary"
	"fmt"
	"slices"

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
	rec, err := parseRecord(buf)
	if err != nil {
		return nil, 0, err
	}
	codes = make([]byte, rec.n)
	Unpack2Into(rec.packed, codes)
	if err := rec.patch(codes, 0, rec.n, true); err != nil {
		return nil, 0, err
	}
	return codes, rec.end, nil
}

// AppendRange appends bases [from, to) of the direct-coded record at the
// start of buf to dst and returns the extended slice: the bytes
// Decode(buf)'s codes[from:to] holds, without decoding the rest of the
// record. It unpacks only the range's 2-bit bytes and walks the
// exception list only as far as to, so the fine phase reads a band's
// window of a long subject in time proportional to the window and the
// wildcards before it. The
// record's wildcards past to are not checked; a store validates every
// record once, at Load. from and to must satisfy 0 ≤ from ≤ to ≤ the
// record's length.
func (dc *DirectCoder) AppendRange(dst, buf []byte, from, to int) ([]byte, error) {
	rec, err := parseRecord(buf)
	if err != nil {
		return dst, err
	}
	if from < 0 || from > to || to > rec.n {
		return dst, fmt.Errorf("dna: direct coding: range [%d,%d) outside a %d-base record", from, to, rec.n)
	}
	at := len(dst)
	dst = slices.Grow(dst, to-from)[:at+to-from]
	out := dst[at:]
	Unpack2Range(rec.packed, from, out)
	return dst, rec.patch(out, from, to, false)
}

// record is a parsed direct-coded record header: the sequence length,
// the wildcard count and exception block, the packed bases and the
// record's end offset in the buffer it was parsed from.
type record struct {
	n, end int
	wilds  uint64
	exc    []byte
	packed []byte
}

// parseRecord reads the header of the direct-coded record at the start
// of buf and checks that its blocks fit buf.
func parseRecord(buf []byte) (record, error) {
	seqLen, k1 := binary.Uvarint(buf)
	if k1 <= 0 {
		return record{}, fmt.Errorf("dna: direct coding: bad sequence length header")
	}
	pos := k1
	wilds, k2 := binary.Uvarint(buf[pos:])
	if k2 <= 0 {
		return record{}, fmt.Errorf("dna: direct coding: bad wildcard count header")
	}
	pos += k2
	excLen, k3 := binary.Uvarint(buf[pos:])
	if k3 <= 0 {
		return record{}, fmt.Errorf("dna: direct coding: bad exception length header")
	}
	pos += k3
	if uint64(len(buf)-pos) < excLen {
		return record{}, fmt.Errorf("dna: direct coding: truncated exception block")
	}
	exc := buf[pos : pos+int(excLen)]
	pos += int(excLen)

	// Bound the decoded length by the bytes actually present before
	// allocating: a corrupt header must not turn ten input bytes into a
	// multi-gigabyte make.
	if seqLen > uint64(len(buf)-pos)*4 {
		return record{}, fmt.Errorf("dna: direct coding: sequence length %d exceeds remaining data", seqLen)
	}
	packedLen := PackedLen(int(seqLen))
	if len(buf)-pos < packedLen {
		return record{}, fmt.Errorf("dna: direct coding: truncated base data: need %d bytes, have %d", packedLen, len(buf)-pos)
	}
	return record{
		n:      int(seqLen),
		end:    pos + packedLen,
		wilds:  wilds,
		exc:    exc,
		packed: buf[pos : pos+packedLen],
	}, nil
}

// patch writes the record's wildcards at positions [from, to) into out,
// which holds those positions. With all set it reads every exception, so
// a corrupt one past to is still an error; otherwise it stops at the
// first exception at or past to.
func (rec *record) patch(out []byte, from, to int, all bool) error {
	if rec.wilds == 0 {
		return nil
	}
	var r compress.BitReader
	r.Reset(rec.exc)
	b, err := compress.GetGamma(&r)
	if err != nil {
		return fmt.Errorf("dna: direct coding: %w", err)
	}
	seqLen := uint64(rec.n)
	at := -1
	for i := uint64(0); i < rec.wilds; i++ {
		gap, err := compress.GetGolomb(&r, b)
		if err != nil {
			return fmt.Errorf("dna: direct coding: %w", err)
		}
		code, err := r.ReadBits(4)
		if err != nil {
			return fmt.Errorf("dna: direct coding: %w", err)
		}
		if gap > seqLen {
			return fmt.Errorf("dna: direct coding: wildcard gap %d beyond sequence length %d", gap, seqLen)
		}
		at += int(gap)
		if at >= rec.n {
			return fmt.Errorf("dna: direct coding: wildcard offset %d beyond sequence length %d", at, seqLen)
		}
		wc := byte(code) + NumBases
		if !ValidCode(wc) {
			return fmt.Errorf("dna: direct coding: invalid wildcard code %d", wc)
		}
		if at >= to {
			if !all {
				return nil
			}
			continue
		}
		if at >= from {
			out[at-from] = wc
		}
	}
	return nil
}
