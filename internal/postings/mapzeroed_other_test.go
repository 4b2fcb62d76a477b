//go:build !linux

package postings

// mapZeroed has no sparse zeroed memory to offer here; the suites skip
// the universe that needs it.
func mapZeroed(n int) (lens []int32, rice1 []uint8, ok bool) { return nil, nil, false }
