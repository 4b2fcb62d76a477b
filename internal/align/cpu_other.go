//go:build !amd64

package align

// vectorRoute reports that no vector route exists on this architecture:
// the striped kernel runs on its uint64 route.
func vectorRoute() (route, bool) { return route{}, false }

// vectorPass reports the same for the banded passes: they run in Go.
func vectorPass() (passRoute, bool) { return passRoute{}, false }
