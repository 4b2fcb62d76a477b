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

// E3Row is one search method's speed/accuracy measurement.
type E3Row struct {
	Method    string
	MeanTime  time.Duration
	SpeedupSW float64 // exhaustive SW time / this method's time
	Recall    float64 // vs the exhaustive SW gold standard
}

// E3 reproduces Table 3, the headline result: query evaluation time of
// partitioned search against the exhaustive baselines, with retrieval
// accuracy relative to the exhaustive Smith–Waterman gold standard.
func E3(w io.Writer, cfg Config) ([]E3Row, error) {
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

	copts := core.DefaultOptions()
	copts.Candidates = cfg.Candidates
	copts.Limit = cfg.TopN
	exact := copts
	exact.FineMode = core.FineFull
	prescreened := copts
	prescreened.Prescreen = 3 * cfg.K * env.Scoring.Match

	type method struct {
		name string
		run  func(q []byte) ([]int, error)
	}
	methods := []method{
		{"sw-scan (exhaustive)", func(q []byte) ([]int, error) {
			return resultIDs(baseline.SWScan(env.Store, q, env.Scoring, 1, cfg.TopN)), nil
		}},
		{"fasta-scan", func(q []byte) ([]int, error) {
			return resultIDs(baseline.FastaScan(env.Store, q, env.Scoring, baseline.DefaultFastaOptions(), 1, cfg.TopN)), nil
		}},
		{"blast-scan", func(q []byte) ([]int, error) {
			return resultIDs(baseline.BlastScan(env.Store, q, env.Scoring, baseline.DefaultBlastOptions(), 1, cfg.TopN)), nil
		}},
		{"partitioned (banded)", func(q []byte) ([]int, error) {
			rs, err := searcher.Search(q, copts)
			return coreIDs(rs), err
		}},
		{"partitioned (prescreen)", func(q []byte) ([]int, error) {
			rs, err := searcher.Search(q, prescreened)
			return coreIDs(rs), err
		}},
		{"partitioned (exact fine)", func(q []byte) ([]int, error) {
			rs, err := searcher.Search(q, exact)
			return coreIDs(rs), err
		}},
	}

	var rows []E3Row
	var swTime time.Duration
	tab := eval.NewTable(
		fmt.Sprintf("E3 (Table 3): query evaluation — %.1f Mbases, %d queries, top %d",
			float64(env.TotalBases())/1e6, len(env.Queries), cfg.TopN),
		"method", "mean/query", "speedup vs SW", "recall")
	for _, m := range methods {
		var total time.Duration
		var recalls []float64
		for qi := range env.Queries {
			q := env.Queries[qi].Codes
			var ids []int
			elapsed := eval.Timed(func() {
				var err2 error
				ids, err2 = m.run(q)
				if err2 != nil {
					err = err2
				}
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			total += elapsed
			gold := env.GoldIDs(qi)
			if len(gold) > 0 {
				recalls = append(recalls, eval.RecallAt(ids, gold, cfg.TopN))
			}
		}
		mean := total / time.Duration(len(env.Queries))
		row := E3Row{Method: m.name, MeanTime: mean, Recall: eval.Mean(recalls)}
		if m.name == methods[0].name {
			swTime = mean
			row.SpeedupSW = 1
		} else {
			row.SpeedupSW = ratioNS(swTime, mean)
		}
		rows = append(rows, row)
		tab.AddRow(m.name, mean, fmt.Sprintf("%.1f×", row.SpeedupSW), row.Recall)
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func resultIDs(rs []baseline.Result) []int {
	ids := make([]int, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

func coreIDs(rs []core.Result) []int {
	ids := make([]int, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}
