// Package directives exercises the waiver syntax: a //cafe:allow with a
// reason suppresses the finding on its line, one without a reason is
// itself a finding, and un-waived violations still surface.
package directives

//cafe:hotpath
func Waived(xs []int) []int {
	xs = append(xs, 1) //cafe:allow amortised scratch, reset by the caller
	xs = append(xs, 2)
	return xs
}

func reasonless() {
	//cafe:allow
	_ = 0
}

// WaivedScoped names the pass it waives; other passes still see the
// line.
//
//cafe:hotpath
func WaivedScoped(xs []int) []int {
	xs = append(xs, 3) //cafe:allow hotpath amortised scratch, reset by the caller
	return xs
}

// WrongScope waives a different pass, so hotpath still fires.
//
//cafe:hotpath
func WrongScope(xs []int) []int {
	xs = append(xs, 4) //cafe:allow ctx scope names another pass, so hotpath still fires
	return xs
}

func scopedReasonless() {
	//cafe:allow errcheck
	_ = 0
}
