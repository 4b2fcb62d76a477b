package experiments

import (
	"fmt"
	"io"
)

// Runner is one experiment's entry point; every runner prints its table
// to w (when non-nil) and returns through its typed row slice.
type Runner struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config) error
}

// Suite lists every experiment in presentation order.
func Suite() []Runner {
	return []Runner{
		{"E1", "index size vs interval length (Table 1)", wrap(E1)},
		{"E2", "postings compression schemes (Table 2)", wrap(E2)},
		{"E3", "query evaluation time vs exhaustive (Table 3)", wrap(E3)},
		{"E4", "coarse-search recall vs candidates (Figure 1)", wrap(E4)},
		{"E5", "index stopping (Table 4)", wrap(E5)},
		{"E6", "query time vs collection size (Figure 2)", wrap(E6)},
		{"E7", "sequence-store coding (Table 5)", wrap(E7)},
		{"E8", "coarse ranking ablation (Table 6)", wrap(E8)},
		{"E10", "query length sweep (extension)", wrap(E10)},
		{"E11", "paged vs in-memory index residency (extension)", wrap(E11)},
		{"E12", "spaced vs contiguous seeds at high divergence (extension)", wrap(E12)},
	}
}

func wrap[T any](fn func(io.Writer, Config) ([]T, error)) func(io.Writer, Config) error {
	return func(w io.Writer, cfg Config) error {
		_, err := fn(w, cfg)
		return err
	}
}

// RunAll executes every experiment against w, separating tables with a
// blank line. It stops at the first failure.
func RunAll(w io.Writer, cfg Config) error {
	for i, r := range Suite() {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := r.Run(w, cfg); err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
	}
	return nil
}
