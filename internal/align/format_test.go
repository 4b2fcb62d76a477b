package align

import (
	"strings"
	"testing"

	"nucleodb/internal/dna"
)

func TestFormatPerfectMatch(t *testing.T) {
	a := seqOf("ACGTACGT")
	al := Local(a, a, DefaultScoring())
	out := Format(a, a, al, 60)
	if !strings.Contains(out, "ACGTACGT") {
		t.Errorf("missing sequence lane:\n%s", out)
	}
	if !strings.Contains(out, "||||||||") {
		t.Errorf("missing match lane:\n%s", out)
	}
	if !strings.Contains(out, "identity 100%") {
		t.Errorf("missing identity:\n%s", out)
	}
	if !strings.Contains(out, "Query      1") || !strings.Contains(out, "  8") {
		t.Errorf("positions wrong:\n%s", out)
	}
}

func TestFormatWithGapAndMismatch(t *testing.T) {
	s := DefaultScoring()
	a := seqOf("ACGTACGTACGTACGT")
	b := append(append([]byte{}, a[:8]...), a[9:]...) // delete base 8
	b[2] = (b[2] + 1) % dna.NumBases                  // mismatch near start
	al := Local(a, b, s)
	if !gapped(al) {
		t.Skip("alignment chose no gap; scoring change?")
	}
	out := Format(a, b, al, 60)
	if !strings.Contains(out, "-") {
		t.Errorf("gap not rendered:\n%s", out)
	}
	// The mismatch column must not be a pipe.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestFormatWrapsBlocks(t *testing.T) {
	a := make([]byte, 150)
	al := Local(a, a, DefaultScoring()) // homopolymer A self-match
	out := Format(a, a, al, 50)
	blocks := strings.Count(out, "Query")
	if blocks != 3 {
		t.Errorf("got %d blocks for 150 columns at width 50:\n%s", blocks, out)
	}
	// Second block starts at position 51.
	if !strings.Contains(out, "Query     51") {
		t.Errorf("second block numbering wrong:\n%s", out)
	}
}

func TestFormatScoreOnly(t *testing.T) {
	al := Alignment{Score: 42, AStart: 3, AEnd: 3, BStart: 9, BEnd: 9}
	out := Format(nil, nil, al, 60)
	if !strings.Contains(out, "score 42") || !strings.Contains(out, "no transcript") {
		t.Errorf("score-only format wrong: %s", out)
	}
}

func TestFormatPositionsConsistent(t *testing.T) {
	// Replay: the printed end position of each block must equal the
	// next block's start − 1.
	a := seqOf(strings.Repeat("ACGT", 40))
	b := seqOf(strings.Repeat("ACGT", 40))
	al := Local(a, b, DefaultScoring())
	out := Format(a, b, al, 32)
	var starts []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Query") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				starts = append(starts, fields[1])
			}
		}
	}
	if len(starts) < 2 {
		t.Fatalf("expected multiple blocks:\n%s", out)
	}
	if starts[0] != "1" || starts[1] != "33" {
		t.Errorf("block starts = %v, want [1 33 ...]", starts)
	}
}

func TestFits(t *testing.T) {
	a := seqOf("ACGTACGTACGTACGT")
	b := append(append([]byte{}, a[:8]...), a[9:]...)
	al := Local(a, b, DefaultScoring())
	if !al.Fits(len(a), len(b)) {
		t.Fatalf("Local's own alignment does not fit its sequences: %+v", al)
	}
	for name, edit := range map[string]func(*Alignment){
		"short query":   func(x *Alignment) {},
		"start moved":   func(x *Alignment) { x.AStart++ },
		"end moved":     func(x *Alignment) { x.BEnd-- },
		"negative span": func(x *Alignment) { x.Ops, x.AStart = nil, -1 },
		"reversed span": func(x *Alignment) { x.Ops, x.BStart = nil, x.BEnd+1 },
	} {
		x := al
		edit(&x)
		aLen := len(a)
		if name == "short query" {
			aLen = al.AEnd - 1
		}
		if x.Fits(aLen, len(b)) {
			t.Errorf("%s: %+v fits a %d-base a", name, x, aLen)
		}
	}
	if x := (Alignment{Score: 9, AStart: 2, AEnd: 5, BStart: 0, BEnd: 3}); !x.Fits(5, 3) {
		t.Errorf("score-only alignment inside both sequences does not fit: %+v", x)
	}
}
