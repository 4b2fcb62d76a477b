// Package dna implements the nucleotide alphabet underlying the whole
// system: base codes, IUPAC wildcard handling, validation, reverse
// complement, 2-bit packing, the direct-coding compression scheme, and
// FASTA input/output.
//
// Throughout the package a sequence in "letter" form is a []byte of
// upper- or lower-case IUPAC nucleotide letters. A sequence in "code"
// form is a []byte where each element is one of the Base* or Wild*
// constants below. Code form is what the rest of the system operates on.
package dna

import (
	"fmt"
)

// Base codes for the four unambiguous nucleotides. These values are the
// 2-bit packed representation and must not be changed: packing, interval
// encoding and the index format all rely on A=0, C=1, G=2, T=3.
const (
	BaseA byte = 0
	BaseC byte = 1
	BaseG byte = 2
	BaseT byte = 3
)

// Wildcard codes for the IUPAC ambiguity letters. They continue the code
// space after the four bases so that a code byte < NumBases is always a
// concrete base and a code byte in [NumBases, NumCodes) is a wildcard.
const (
	WildR byte = 4 + iota // A or G (purine)
	WildY                 // C or T (pyrimidine)
	WildS                 // G or C
	WildW                 // A or T
	WildK                 // G or T
	WildM                 // A or C
	WildB                 // C, G or T
	WildD                 // A, G or T
	WildH                 // A, C or T
	WildV                 // A, C or G
	WildN                 // any base
)

// NumBases is the number of unambiguous base codes.
const NumBases = 4

// NumCodes is the total number of codes: four bases plus eleven IUPAC
// wildcards.
const NumCodes = 15

// letterOf maps a code to its canonical upper-case IUPAC letter.
var letterOf = [NumCodes]byte{
	'A', 'C', 'G', 'T',
	'R', 'Y', 'S', 'W', 'K', 'M', 'B', 'D', 'H', 'V', 'N',
}

// codeOf maps an ASCII letter to its code, or 0xFF for letters outside
// the IUPAC nucleotide alphabet. Both cases are accepted; 'U' (RNA
// uracil) is mapped to T as sequence databanks conventionally do.
var codeOf [256]byte

func init() {
	for i := range codeOf {
		codeOf[i] = 0xFF
	}
	for c := byte(0); c < NumCodes; c++ {
		u := letterOf[c]
		codeOf[u] = c
		codeOf[u+('a'-'A')] = c
	}
	codeOf['U'] = BaseT
	codeOf['u'] = BaseT
}

// complementOf maps each code to the code of its Watson–Crick complement.
// Wildcards complement to the wildcard matching the complementary base
// set (e.g. R = A|G complements to Y = T|C).
var complementOf = [NumCodes]byte{
	BaseT, BaseG, BaseC, BaseA,
	WildY, WildR, WildS, WildW, WildM, WildK, WildV, WildH, WildD, WildB,
	WildN,
}

// IsBase reports whether code is one of the four unambiguous bases.
func IsBase(code byte) bool { return code < NumBases }

// IsWildcard reports whether code is an IUPAC ambiguity code.
func IsWildcard(code byte) bool { return code >= NumBases && code < NumCodes }

// ValidCode reports whether code is any valid nucleotide code.
func ValidCode(code byte) bool { return code < NumCodes }

// Letter returns the canonical upper-case IUPAC letter for a code.
// It panics if code is not a valid nucleotide code; codes are internal
// values so an invalid one indicates a programming error, not bad input.
func Letter(code byte) byte {
	if !ValidCode(code) {
		panic(fmt.Sprintf("dna: invalid nucleotide code %d", code))
	}
	return letterOf[code]
}

// Code returns the nucleotide code for an ASCII letter and whether the
// letter is a valid IUPAC nucleotide.
func Code(letter byte) (code byte, ok bool) {
	c := codeOf[letter]
	return c, c != 0xFF
}

// Complement returns the code of the Watson–Crick complement of code.
// It panics on an invalid code.
func Complement(code byte) byte {
	if !ValidCode(code) {
		panic(fmt.Sprintf("dna: invalid nucleotide code %d", code))
	}
	return complementOf[code]
}

// Encode converts a sequence of IUPAC letters into code form.
// It returns an error naming the offending position if any byte is not a
// valid nucleotide letter.
func Encode(letters []byte) ([]byte, error) {
	codes := make([]byte, len(letters))
	for i, b := range letters {
		c := codeOf[b]
		if c == 0xFF {
			return nil, fmt.Errorf("dna: invalid nucleotide letter %q at position %d", b, i)
		}
		codes[i] = c
	}
	return codes, nil
}

// MustEncode is Encode for trusted literals; it panics on invalid input.
// It is intended for tests and examples.
func MustEncode(letters string) []byte {
	codes, err := Encode([]byte(letters))
	if err != nil {
		panic(err)
	}
	return codes
}

// Decode converts a sequence in code form back to upper-case IUPAC
// letters. It panics on an invalid code.
func Decode(codes []byte) []byte {
	letters := make([]byte, len(codes))
	for i, c := range codes {
		letters[i] = Letter(c)
	}
	return letters
}

// String renders a code-form sequence as a string of IUPAC letters.
func String(codes []byte) string { return string(Decode(codes)) }

// ReverseComplement returns the reverse complement of a code-form
// sequence as a new slice.
func ReverseComplement(codes []byte) []byte {
	rc := make([]byte, len(codes))
	for i, c := range codes {
		rc[len(codes)-1-i] = Complement(c)
	}
	return rc
}

// CountWildcards returns the number of wildcard codes in a code-form
// sequence.
func CountWildcards(codes []byte) int {
	n := 0
	for _, c := range codes {
		if IsWildcard(c) {
			n++
		}
	}
	return n
}

// Matches reports whether two codes are compatible: a wildcard matches
// any base in its ambiguity set, and two bases match only if equal.
// Two wildcards match if their base sets intersect.
func Matches(a, b byte) bool {
	return baseSet(a)&baseSet(b) != 0
}

// baseSet returns the set of bases a code can stand for, as a 4-bit mask
// with bit i set when base code i is in the set.
func baseSet(code byte) uint8 {
	switch code {
	case BaseA:
		return 1 << BaseA
	case BaseC:
		return 1 << BaseC
	case BaseG:
		return 1 << BaseG
	case BaseT:
		return 1 << BaseT
	case WildR:
		return 1<<BaseA | 1<<BaseG
	case WildY:
		return 1<<BaseC | 1<<BaseT
	case WildS:
		return 1<<BaseG | 1<<BaseC
	case WildW:
		return 1<<BaseA | 1<<BaseT
	case WildK:
		return 1<<BaseG | 1<<BaseT
	case WildM:
		return 1<<BaseA | 1<<BaseC
	case WildB:
		return 1<<BaseC | 1<<BaseG | 1<<BaseT
	case WildD:
		return 1<<BaseA | 1<<BaseG | 1<<BaseT
	case WildH:
		return 1<<BaseA | 1<<BaseC | 1<<BaseT
	case WildV:
		return 1<<BaseA | 1<<BaseC | 1<<BaseG
	case WildN:
		return 1<<BaseA | 1<<BaseC | 1<<BaseG | 1<<BaseT
	}
	panic(fmt.Sprintf("dna: invalid nucleotide code %d", code))
}

// CanonicalBase returns code itself for a base, and the lowest base code
// in the ambiguity set for a wildcard.
func CanonicalBase(code byte) byte {
	if IsBase(code) {
		return code
	}
	set := baseSet(code)
	for b := byte(0); b < NumBases; b++ {
		if set&(1<<b) != 0 {
			return b
		}
	}
	panic("dna: empty base set") // unreachable: every code has a non-empty set
}
