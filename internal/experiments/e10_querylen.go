package experiments

import (
	"fmt"
	"io"
	"time"

	"nucleodb/internal/baseline"
	"nucleodb/internal/core"
	"nucleodb/internal/eval"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
)

// E10Row is one query length's measurement.
type E10Row struct {
	QueryLen      int
	PartitionTime time.Duration
	SWScanTime    time.Duration
	Speedup       float64
	Recall        float64
}

// E10 sweeps query length: longer queries have more intervals (coarse
// cost grows with query length) but exhaustive alignment cost grows
// proportionally too, so the speedup holds across the realistic range
// from short reads to gene-length queries.
func E10(w io.Writer, cfg Config) ([]E10Row, error) {
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
	opts := core.DefaultOptions()
	opts.Candidates = cfg.Candidates
	opts.Limit = cfg.TopN

	var rows []E10Row
	tab := eval.NewTable(
		fmt.Sprintf("E10 (extension): query length sweep — %.1f Mbases", float64(env.TotalBases())/1e6),
		"query bases", "partitioned/query", "sw-scan/query", "speedup", "recall")
	for _, qlen := range []int{100, 200, 400, 800} {
		// Derive length-qlen variants of the standard workload from
		// the same family sources.
		wcfg := gen.WorkloadConfig{
			Seed:          cfg.Seed + int64(qlen),
			NumHomologous: 5,
			QueryLength:   qlen,
			Divergence:    cfg.Divergence,
		}
		queries, err := gen.MakeWorkload(env.Col, wcfg)
		if err != nil {
			return nil, err
		}
		var partTotal, swTotal time.Duration
		var recalls []float64
		for _, q := range queries {
			gold := baseline.SWScan(env.Store, q.Codes, env.Scoring, goldThresholdFor(env, q.Codes), cfg.TopN)
			goldSet := map[int]bool{}
			for _, g := range gold {
				goldSet[g.ID] = true
			}
			var rs []core.Result
			partTotal += eval.Timed(func() {
				var err2 error
				rs, err2 = searcher.Search(q.Codes, opts)
				if err2 != nil {
					err = err2
				}
			})
			if err != nil {
				return nil, err
			}
			swTotal += eval.Timed(func() {
				baseline.SWScan(env.Store, q.Codes, env.Scoring, 1, cfg.TopN)
			})
			if len(goldSet) > 0 {
				recalls = append(recalls, eval.RecallAt(coreIDs(rs), goldSet, cfg.TopN))
			}
		}
		n := time.Duration(len(queries))
		row := E10Row{
			QueryLen:      qlen,
			PartitionTime: partTotal / n,
			SWScanTime:    swTotal / n,
			Recall:        eval.Mean(recalls),
		}
		row.Speedup = ratioNS(row.SWScanTime, row.PartitionTime)
		rows = append(rows, row)
		tab.AddRow(qlen, row.PartitionTime, row.SWScanTime,
			fmt.Sprintf("%.1f×", row.Speedup), row.Recall)
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// goldThresholdFor mirrors Env.goldThreshold for ad-hoc queries.
func goldThresholdFor(env *Env, q []byte) int {
	half := len(q) * env.Scoring.Match / 2
	floor := 4 * env.Cfg.K * env.Scoring.Match
	if half > floor {
		return half
	}
	return floor
}
