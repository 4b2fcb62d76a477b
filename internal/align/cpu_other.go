//go:build !amd64

package align

// vectorRoute reports that no vector route exists on this architecture:
// the striped kernel runs on its uint64 route.
func vectorRoute() (route, bool) { return route{}, false }
