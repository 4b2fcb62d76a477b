package experiments

import (
	"fmt"
	"io"

	"nucleodb/internal/core"
	"nucleodb/internal/eval"
	"nucleodb/internal/index"
)

// E4Row is one candidate-budget point on the coarse-recall curve.
type E4Row struct {
	Candidates int
	Recall     float64 // mean over queries, vs the exhaustive gold standard
}

// E4 reproduces Figure 1: how many coarse candidates must proceed to
// the fine phase before the exhaustive answers are covered. The curve
// rising steeply and saturating far below the collection size is the
// evidence that intervals are "a suitable basis for indexing".
func E4(w io.Writer, cfg Config) ([]E4Row, error) {
	env, err := NewEnv(cfg, cfg.BaseBases)
	if err != nil {
		return nil, err
	}
	idx, _, err := env.BuildIndex(index.Options{K: cfg.K})
	if err != nil {
		return nil, err
	}
	searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
	if err != nil {
		return nil, err
	}

	budgets := []int{1, 2, 5, 10, 20, 50, 100, 200}
	// One coarse ranking per query, reused across budgets.
	perQuery := make([][]int, len(env.Queries))
	for qi := range env.Queries {
		cands, err := searcher.Coarse(env.Queries[qi].Codes, core.CoarseDistinct, 1)
		if err != nil {
			return nil, err
		}
		ids := make([]int, len(cands))
		for i, c := range cands {
			ids[i] = c.ID
		}
		perQuery[qi] = ids
	}

	var rows []E4Row
	tab := eval.NewTable(
		fmt.Sprintf("E4 (Figure 1): coarse-search recall vs candidate budget — %d sequences",
			env.Store.Len()),
		"candidates", "recall")
	for _, c := range budgets {
		var recalls []float64
		for qi := range env.Queries {
			gold := env.GoldIDs(qi)
			if len(gold) == 0 {
				continue
			}
			recalls = append(recalls, eval.RecallAt(perQuery[qi], gold, c))
		}
		row := E4Row{Candidates: c, Recall: eval.Mean(recalls)}
		rows = append(rows, row)
		tab.AddRow(c, row.Recall)
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
