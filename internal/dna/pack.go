package dna

// Pack2Lossy packs a code-form sequence into 2 bits per base, four
// bases per byte, first base in the low-order bits. 2-bit packing has
// no room for wildcards — exactly the problem the direct-coding scheme
// (DirectCoder) solves around it — so each wildcard is canonicalised to
// a base in its ambiguity set; the returned count is the number of
// wildcards that were substituted.
func Pack2Lossy(codes []byte) (packed []byte, substituted int) {
	packed = make([]byte, (len(codes)+3)/4)
	for i, c := range codes {
		if !IsBase(c) {
			c = CanonicalBase(c)
			substituted++
		}
		packed[i>>2] |= c << uint((i&3)*2)
	}
	return packed, substituted
}

// Unpack2Into decodes len(dst) bases from packed into dst, avoiding an
// allocation. It is the hot path for retrieving stored sequences.
func Unpack2Into(packed []byte, dst []byte) {
	n := len(dst)
	// Decode four bases per input byte for the bulk of the buffer.
	full := n / 4
	for i := 0; i < full; i++ {
		b := packed[i]
		dst[i*4] = b & 3
		dst[i*4+1] = (b >> 2) & 3
		dst[i*4+2] = (b >> 4) & 3
		dst[i*4+3] = (b >> 6) & 3
	}
	for i := full * 4; i < n; i++ {
		dst[i] = (packed[i>>2] >> uint((i&3)*2)) & 3
	}
}

// Unpack2Range decodes len(dst) bases starting at base from out of
// packed into dst: Unpack2Into's output from base from on, without
// decoding the bases before it.
func Unpack2Range(packed []byte, from int, dst []byte) {
	// Bases up to the next byte boundary, then whole bytes.
	head := min((4-from&3)&3, len(dst))
	for i := 0; i < head; i++ {
		p := from + i
		dst[i] = packed[p>>2] >> uint((p&3)*2) & 3
	}
	Unpack2Into(packed[(from+head)>>2:], dst[head:])
}

// PackedLen returns the number of bytes needed to 2-bit pack n bases.
func PackedLen(n int) int { return (n + 3) / 4 }
