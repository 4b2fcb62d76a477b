package align

import (
	"fmt"
	"strings"

	"nucleodb/internal/dna"
)

// Format renders an alignment with a transcript in the conventional
// three-line blocks:
//
//	Query    1  ACGTACGT-ACGT  12
//	            |||| |||  |||
//	Sbjct   41  ACGTTCGTNACGT  53
//
// width (> 0) is the number of columns per block. Positions are
// 1-based inclusive, as search tools print them; the header counts
// matches and gaps as the transcript is drawn. An alignment without a
// transcript formats as a one-line summary. al must Fit a and b.
func Format(a, b []byte, al Alignment, width int) string {
	if len(al.Ops) == 0 {
		return fmt.Sprintf("score %d, query %d-%d, subject %d-%d (no transcript)",
			al.Score, al.AStart+1, al.AEnd, al.BStart+1, al.BEnd)
	}

	// Render the three full lanes first.
	var qa, mid, sa []byte
	matches, gaps := 0, 0
	i, j := al.AStart, al.BStart
	for _, o := range al.Ops {
		switch o {
		case OpMatch:
			qa = append(qa, dna.Letter(a[i]))
			sa = append(sa, dna.Letter(b[j]))
			if dna.Matches(a[i], b[j]) {
				mid = append(mid, '|')
				matches++
			} else {
				mid = append(mid, ' ')
			}
			i++
			j++
		case OpAGap:
			qa = append(qa, '-')
			sa = append(sa, dna.Letter(b[j]))
			mid = append(mid, ' ')
			gaps++
			j++
		case OpBGap:
			qa = append(qa, dna.Letter(a[i]))
			sa = append(sa, '-')
			mid = append(mid, ' ')
			gaps++
			i++
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "score %d, identity %.0f%% (%d/%d), gaps %d\n",
		al.Score, 100*float64(matches)/float64(len(al.Ops)), matches, len(al.Ops), gaps)
	qPos, sPos := al.AStart, al.BStart
	for start := 0; start < len(qa); start += width {
		end := start + width
		if end > len(qa) {
			end = len(qa)
		}
		qSeg, mSeg, sSeg := qa[start:end], mid[start:end], sa[start:end]
		qConsumed := len(qSeg) - strings.Count(string(qSeg), "-")
		sConsumed := len(sSeg) - strings.Count(string(sSeg), "-")
		fmt.Fprintf(&sb, "Query %6d  %s  %d\n", qPos+1, qSeg, qPos+qConsumed)
		fmt.Fprintf(&sb, "%13s %s\n", "", mSeg)
		fmt.Fprintf(&sb, "Sbjct %6d  %s  %d\n", sPos+1, sSeg, sPos+sConsumed)
		qPos += qConsumed
		sPos += sConsumed
		if end < len(qa) {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Fits reports whether al's spans lie within an a of aLen and a b of
// bLen bases and its transcript, if any, crosses exactly those spans:
// what Format needs of an alignment it is handed.
func (al *Alignment) Fits(aLen, bLen int) bool {
	i, j := al.AStart, al.BStart
	for _, o := range al.Ops {
		if o != OpAGap {
			i++
		}
		if o != OpBGap {
			j++
		}
	}
	return 0 <= al.AStart && al.AStart <= al.AEnd && al.AEnd <= aLen &&
		0 <= al.BStart && al.BStart <= al.BEnd && al.BEnd <= bLen &&
		(len(al.Ops) == 0 || i == al.AEnd && j == al.BEnd)
}
