package experiments

import (
	"fmt"
	"io"
	"time"

	"nucleodb/internal/baseline"
	"nucleodb/internal/core"
	"nucleodb/internal/eval"
	"nucleodb/internal/index"
)

// E6Row is one collection size's timing point.
type E6Row struct {
	Bases          int
	SWScanTime     time.Duration
	PartitionTime  time.Duration
	Speedup        float64
	IndexBuildTime time.Duration
}

// E6 reproduces Figure 2: how query cost grows with collection size.
// The exhaustive scan grows linearly; the partitioned evaluation's fine
// phase is bounded by the candidate budget, so the gap widens — the
// paper's argument that exhaustive search "will become prohibitively
// expensive" as databases grow.
func E6(w io.Writer, cfg Config) ([]E6Row, error) {
	var rows []E6Row
	tab := eval.NewTable(
		"E6 (Figure 2): query time vs collection size",
		"Mbases", "sw-scan/query", "partitioned/query", "speedup", "index build")
	for _, bases := range cfg.ScaleBases {
		sized := cfg
		sized.Seed = cfg.Seed + int64(bases) // fresh data per size
		env, err := NewEnv(sized, bases)
		if err != nil {
			return nil, err
		}
		idx, buildTime, err := env.BuildIndex(index.Options{K: cfg.K})
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

		// A few queries suffice per point; the scan dominates runtime.
		n := len(env.Queries)
		if n > 5 {
			n = 5
		}
		var swTotal, partTotal time.Duration
		for qi := 0; qi < n; qi++ {
			q := env.Queries[qi].Codes
			swTotal += eval.Timed(func() {
				baseline.SWScan(env.Store, q, env.Scoring, 1, cfg.TopN)
			})
			partTotal += eval.Timed(func() {
				if _, err2 := searcher.Search(q, opts); err2 != nil {
					err = err2
				}
			})
			if err != nil {
				return nil, err
			}
		}
		row := E6Row{
			Bases:          env.TotalBases(),
			SWScanTime:     swTotal / time.Duration(n),
			PartitionTime:  partTotal / time.Duration(n),
			IndexBuildTime: buildTime,
		}
		row.Speedup = ratioNS(row.SWScanTime, row.PartitionTime)
		rows = append(rows, row)
		tab.AddRow(fmt.Sprintf("%.1f", float64(row.Bases)/1e6),
			row.SWScanTime, row.PartitionTime,
			fmt.Sprintf("%.1f×", row.Speedup), row.IndexBuildTime)
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
