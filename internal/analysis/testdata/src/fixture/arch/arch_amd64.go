package arch

// Lanes is declared once per architecture; the loader must type-check
// only the file the current GOARCH builds.
func Lanes() int { return 32 }
