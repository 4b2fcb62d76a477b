package experiments

import (
	"fmt"
	"io"
	"time"

	"nucleodb/internal/core"
	"nucleodb/internal/eval"
	"nucleodb/internal/index"
)

// E8Row is one coarse-ranking variant's measurement.
type E8Row struct {
	Mode      core.CoarseMode
	Recall    float64 // full-search recall at TopN
	CoarseR20 float64 // coarse-only recall within the candidate budget
	MeanTime  time.Duration
}

// E8 is the design ablation (Table 6): how the coarse ranking function
// affects accuracy and cost. Count-distinct with length damping is the
// design the paper settled on; total-occurrence counting over-rewards
// long repetitive sequences, and diagonal clustering buys precision for
// extra index size.
func E8(w io.Writer, cfg Config) ([]E8Row, error) {
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

	modes := []core.CoarseMode{core.CoarseDistinct, core.CoarseTotal, core.CoarseNormalised, core.CoarseDiagonal}
	var rows []E8Row
	tab := eval.NewTable(
		fmt.Sprintf("E8 (Table 6): coarse ranking ablation — budget %d candidates", cfg.Candidates),
		"coarse mode", "recall(search)", "recall(coarse)", "mean/query")
	for _, mode := range modes {
		opts := core.DefaultOptions()
		opts.CoarseMode = mode
		opts.Candidates = cfg.Candidates
		opts.Limit = cfg.TopN

		var total time.Duration
		var searchRecalls, coarseRecalls []float64
		for qi := range env.Queries {
			q := env.Queries[qi].Codes
			gold := env.GoldIDs(qi)
			var rs []core.Result
			elapsed := eval.Timed(func() {
				var err2 error
				rs, err2 = searcher.Search(q, opts)
				if err2 != nil {
					err = err2
				}
			})
			if err != nil {
				return nil, err
			}
			total += elapsed
			if len(gold) == 0 {
				continue
			}
			searchRecalls = append(searchRecalls, eval.RecallAt(coreIDs(rs), gold, cfg.TopN))

			cands, err := searcher.Coarse(q, mode, 1)
			if err != nil {
				return nil, err
			}
			ids := make([]int, len(cands))
			for i, c := range cands {
				ids[i] = c.ID
			}
			coarseRecalls = append(coarseRecalls, eval.RecallAt(ids, gold, cfg.Candidates))
		}
		row := E8Row{
			Mode:      mode,
			Recall:    eval.Mean(searchRecalls),
			CoarseR20: eval.Mean(coarseRecalls),
			MeanTime:  total / time.Duration(len(env.Queries)),
		}
		rows = append(rows, row)
		tab.AddRow(mode.String(), row.Recall, row.CoarseR20, row.MeanTime)
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
