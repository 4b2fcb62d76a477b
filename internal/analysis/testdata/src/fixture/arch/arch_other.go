//go:build !amd64

package arch

func Lanes() int { return 8 }
