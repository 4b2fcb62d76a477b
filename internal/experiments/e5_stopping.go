package experiments

import (
	"fmt"
	"io"
	"time"

	"nucleodb/internal/core"
	"nucleodb/internal/eval"
	"nucleodb/internal/index"
)

// E5Row is one stopping fraction's size/speed/accuracy measurement.
type E5Row struct {
	StopFraction float64
	TermsStopped int
	IndexBytes   int
	MeanTime     time.Duration
	Recall       float64
}

// E5 reproduces Table 4: index stopping. Discarding a small fraction of
// the most frequent intervals shrinks the index and speeds coarse
// evaluation with little accuracy cost; aggressive stopping starts to
// hurt recall.
func E5(w io.Writer, cfg Config) ([]E5Row, error) {
	env, err := NewEnv(cfg, cfg.BaseBases)
	if err != nil {
		return nil, err
	}
	var rows []E5Row
	tab := eval.NewTable(
		fmt.Sprintf("E5 (Table 4): index stopping — %.1f Mbases, interval length %d",
			float64(env.TotalBases())/1e6, cfg.K),
		"stop %", "terms stopped", "index size", "mean/query", "recall")
	for _, f := range []float64{0, 0.001, 0.01, 0.05, 0.10} {
		idx, _, err := env.BuildIndex(index.Options{K: cfg.K, StopFraction: f})
		if err != nil {
			return nil, err
		}
		searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.Candidates = cfg.Candidates
		opts.Limit = cfg.TopN

		var total time.Duration
		var recalls []float64
		for qi := range env.Queries {
			var rs []core.Result
			q := env.Queries[qi].Codes
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
			gold := env.GoldIDs(qi)
			if len(gold) > 0 {
				recalls = append(recalls, eval.RecallAt(coreIDs(rs), gold, cfg.TopN))
			}
		}
		row := E5Row{
			StopFraction: f,
			TermsStopped: idx.NumStopped(),
			IndexBytes:   idx.SizeBytes(),
			MeanTime:     total / time.Duration(len(env.Queries)),
			Recall:       eval.Mean(recalls),
		}
		rows = append(rows, row)
		tab.AddRow(fmt.Sprintf("%.1f%%", f*100), row.TermsStopped, mb(row.IndexBytes),
			row.MeanTime, row.Recall)
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
