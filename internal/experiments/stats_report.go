package experiments

import (
	"time"

	"nucleodb/internal/core"
	"nucleodb/internal/index"
)

// StageBreakdown is one pipeline stage's aggregate cost over a
// workload, in the JSON shape cafe-bench -json emits.
type StageBreakdown struct {
	TotalUS float64 `json:"total_us"`
	MeanUS  float64 `json:"mean_us"`
	// Share is this stage's fraction of the summed stage time — the
	// paper's coarse-vs-fine cost split, measured.
	Share float64 `json:"share"`
}

// StatsReport is the machine-readable per-stage breakdown of the
// standard search workload: what cafe-bench -json prints, and what
// later perf PRs diff against.
type StatsReport struct {
	Seed        int                       `json:"seed"`
	Bases       int                       `json:"bases"`
	Sequences   int                       `json:"sequences"`
	Queries     int                       `json:"queries"`
	QueryLen    int                       `json:"query_len"`
	K           int                       `json:"k"`
	Candidates  int                       `json:"candidates"`
	Counters    map[string]int64          `json:"counters"`
	Stages      map[string]StageBreakdown `json:"stages"`
	MeanQueryUS float64                   `json:"mean_query_us"`
}

// Observe runs the standard workload once with stats collection on and
// aggregates the per-stage breakdown. It is the programmatic form of
// `cafe-bench -json`.
func Observe(cfg Config) (*StatsReport, error) {
	env, err := NewEnv(cfg, cfg.BaseBases)
	if err != nil {
		return nil, err
	}
	idx, _, err := env.BuildIndex(index.Options{K: cfg.K, StoreOffsets: true})
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

	var agg, st core.SearchStats
	for qi := range env.Queries {
		if _, err := searcher.SearchWithStats(env.Queries[qi].Codes, opts, &st); err != nil {
			return nil, err
		}
		agg.Add(st)
	}
	n := len(env.Queries)
	if n == 0 {
		n = 1
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	stageSum := agg.StageTime()
	if stageSum == 0 {
		stageSum = 1
	}
	share := func(d time.Duration) float64 { return float64(d) / float64(stageSum) }
	return &StatsReport{
		Seed:       int(cfg.Seed),
		Bases:      env.TotalBases(),
		Sequences:  env.Store.Len(),
		Queries:    len(env.Queries),
		QueryLen:   cfg.QueryLen,
		K:          cfg.K,
		Candidates: cfg.Candidates,
		Counters: map[string]int64{
			"query_terms":          int64(agg.QueryTerms),
			"posting_lists":        int64(agg.PostingLists),
			"postings_decoded":     agg.PostingsDecoded,
			"postings_bytes_read":  agg.PostingsBytesRead,
			"coarse_sequences":     int64(agg.CoarseSequences),
			"coarse_candidates":    int64(agg.CoarseCandidates),
			"prescreen_rejections": int64(agg.PrescreenRejections),
			"fine_alignments":      int64(agg.FineAlignments),
			"bitvector_alignments": int64(agg.BitvectorAlignments),
			"traceback_alignments": int64(agg.TracebackAlignments),
			"fine_dp_cells":        agg.FineDPCells,
			"traceback_dp_cells":   agg.TracebackDPCells,
			"results":              int64(agg.Results),
		},
		Stages: map[string]StageBreakdown{
			"coarse":    {TotalUS: us(agg.CoarseTime), MeanUS: us(agg.CoarseTime) / float64(n), Share: share(agg.CoarseTime)},
			"prescreen": {TotalUS: us(agg.PrescreenTime), MeanUS: us(agg.PrescreenTime) / float64(n), Share: share(agg.PrescreenTime)},
			"fine":      {TotalUS: us(agg.FineTime), MeanUS: us(agg.FineTime) / float64(n), Share: share(agg.FineTime)},
			"traceback": {TotalUS: us(agg.TracebackTime), MeanUS: us(agg.TracebackTime) / float64(n), Share: share(agg.TracebackTime)},
		},
		MeanQueryUS: us(agg.TotalTime) / float64(n),
	}, nil
}
