package align

// ExtendUngapped grows an exact seed hit into an ungapped high-scoring
// segment pair, the BLAST1 extension step. The seed is a matching
// region a[aPos:aPos+seedLen] == b[bPos:bPos+seedLen] (the caller
// guarantees the match); extension proceeds independently left and
// right, accumulating substitution scores and stopping when the running
// score drops more than xdrop below the best seen in that direction.
//
// It returns the segment's score and its half-open spans in a and b.
func ExtendUngapped(a, b []byte, aPos, bPos, seedLen int, s Scoring, xdrop int) (score, aStart, aEnd, bStart, bEnd int) {
	score = seedLen * s.Match
	aStart, aEnd = aPos, aPos+seedLen
	bStart, bEnd = bPos, bPos+seedLen

	// Leftward extension.
	run, best := 0, 0
	for i, j := aPos-1, bPos-1; i >= 0 && j >= 0; i, j = i-1, j-1 {
		run += s.Score(a[i], b[j])
		if run > best {
			best = run
			aStart, bStart = i, j
		}
		if best-run > xdrop {
			break
		}
	}
	score += best

	// Rightward extension.
	run, best = 0, 0
	for i, j := aPos+seedLen, bPos+seedLen; i < len(a) && j < len(b); i, j = i+1, j+1 {
		run += s.Score(a[i], b[j])
		if run > best {
			best = run
			aEnd, bEnd = i+1, j+1
		}
		if best-run > xdrop {
			break
		}
	}
	score += best
	return score, aStart, aEnd, bStart, bEnd
}
