package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDirectCodingRoundTrip(t *testing.T) {
	var dc DirectCoder
	for _, s := range []string{
		"",
		"A",
		"ACGT",
		"ACGTN",
		"NACGT",
		"NNNNN",
		"GATTACAGATTACAGATTACA",
		"ACGTRYSWKMBDHVNACGT",
	} {
		codes := MustEncode(s)
		enc := dc.Encode(nil, codes)
		got, n, err := dc.Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%s): %v", s, err)
		}
		if n != len(enc) {
			t.Errorf("Decode(%s) consumed %d of %d bytes", s, n, len(enc))
		}
		if !bytes.Equal(got, codes) {
			t.Errorf("round trip %s = %s", s, String(got))
		}
	}
}

func TestDirectCodingLossless(t *testing.T) {
	// The whole point of direct coding: wildcards survive, unlike Pack2Lossy.
	var dc DirectCoder
	codes := MustEncode("ACGNNRYACGT")
	enc := dc.Encode(nil, codes)
	got, _, err := dc.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if CountWildcards(got) != 4 {
		t.Errorf("wildcards lost: %s", String(got))
	}
}

func TestDirectCodingAppends(t *testing.T) {
	var dc DirectCoder
	a := MustEncode("ACGT")
	b := MustEncode("GGNCC")
	buf := dc.Encode(nil, a)
	split := len(buf)
	buf = dc.Encode(buf, b)

	gotA, n, err := dc.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != split {
		t.Fatalf("first record consumed %d bytes, want %d", n, split)
	}
	gotB, _, err := dc.Decode(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, a) || !bytes.Equal(gotB, b) {
		t.Errorf("concatenated records corrupted: %s / %s", String(gotA), String(gotB))
	}
}

func TestDirectCodingCompact(t *testing.T) {
	// On realistic data (0.1% wildcards) the encoding must stay near
	// 2 bits/base: headers plus exceptions under 10% overhead at 10kb.
	var dc DirectCoder
	rng := rand.New(rand.NewSource(5))
	codes := make([]byte, 10000)
	for i := range codes {
		if rng.Intn(1000) == 0 {
			codes[i] = WildN
		} else {
			codes[i] = byte(rng.Intn(NumBases))
		}
	}
	enc := dc.Encode(nil, codes)
	bitsPerBase := float64(len(enc)*8) / float64(len(codes))
	if bitsPerBase > 2.2 {
		t.Errorf("direct coding %.3f bits/base, want ≤ 2.2", bitsPerBase)
	}
}

func TestDirectCodingTruncated(t *testing.T) {
	var dc DirectCoder
	enc := dc.Encode(nil, MustEncode("ACGTNACGTNACGT"))
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := dc.Decode(enc[:cut]); err == nil {
			// A prefix that happens to decode as a shorter valid record
			// is acceptable only if it consumed exactly the prefix; the
			// headers make that impossible here except cut=0 length 0.
			got, n, _ := dc.Decode(enc[:cut])
			if n != cut || len(got) != 0 {
				t.Errorf("truncation at %d/%d decoded without error", cut, len(enc))
			}
		}
	}
}

func TestPropertyDirectCodingRoundTrip(t *testing.T) {
	var dc DirectCoder
	rng := rand.New(rand.NewSource(6))
	f := func(n uint16, dense bool) bool {
		codes := randomCodes(rng, int(n%2048), dense)
		enc := dc.Encode(nil, codes)
		got, used, err := dc.Decode(enc)
		return err == nil && used == len(enc) && bytes.Equal(got, codes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
