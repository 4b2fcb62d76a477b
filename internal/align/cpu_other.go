//go:build !amd64

package align

// vectorRoute reports that no vector route exists on this architecture:
// the striped kernel runs on its uint64 route.
func vectorRoute() (route, bool) { return route{}, false }

// vectorRows reports the same for the banded rows: they run in Go.
func vectorRows() (rowRoute, bool) { return rowRoute{}, false }
