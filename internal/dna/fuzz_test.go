package dna

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDirectDecode feeds arbitrary bytes to the direct-coding decoder:
// it must never panic or hang, and anything it accepts must re-encode
// to a decodable record.
func FuzzDirectDecode(f *testing.F) {
	var dc DirectCoder
	f.Add([]byte{})
	f.Add(dc.Encode(nil, MustEncode("ACGT")))
	f.Add(dc.Encode(nil, MustEncode("ACGTNRYACGT")))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var coder DirectCoder
		codes, n, err := coder.Decode(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		for _, c := range codes {
			if !ValidCode(c) {
				t.Fatalf("decoder produced invalid code %d", c)
			}
		}
		// Round-trip whatever was accepted.
		re := coder.Encode(nil, codes)
		back, _, err := coder.Decode(re)
		if err != nil || !bytes.Equal(back, codes) {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
	})
}

// FuzzDirectRoundTrip fuzzes the encode side with arbitrary valid
// sequences derived from the input bytes.
func FuzzDirectRoundTrip(f *testing.F) {
	f.Add([]byte("ACGT"), true)
	f.Add([]byte{}, false)
	f.Add([]byte("the quick brown fox"), true)
	f.Fuzz(func(t *testing.T, raw []byte, wild bool) {
		codes := make([]byte, len(raw))
		for i, b := range raw {
			if wild {
				codes[i] = b % NumCodes
			} else {
				codes[i] = b % NumBases
			}
		}
		var coder DirectCoder
		enc := coder.Encode(nil, codes)
		back, n, err := coder.Decode(enc)
		if err != nil || n != len(enc) || !bytes.Equal(back, codes) {
			t.Fatalf("round trip failed: err=%v n=%d/%d", err, n, len(enc))
		}
	})
}

// FuzzFasta feeds arbitrary text to the FASTA reader: it must never
// panic, and accepted records must survive a write/read round trip.
func FuzzFasta(f *testing.F) {
	f.Add(">a\nACGT\n")
	f.Add(">x desc here\nacgtn\nACGT\n>y\n\n")
	f.Add("")
	f.Add(">\n")
	f.Fuzz(func(t *testing.T, text string) {
		recs, err := ReadAll(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFasta(&buf, recs, 60); err != nil {
			t.Fatalf("write of accepted records failed: %v", err)
		}
		back, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("reread failed: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip %d → %d records", len(recs), len(back))
		}
		for i := range recs {
			if !bytes.Equal(back[i].Codes, recs[i].Codes) {
				t.Fatalf("record %d sequence changed", i)
			}
		}
	})
}
