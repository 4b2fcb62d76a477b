// Package experiments implements the reproduction of the paper's
// evaluation: one runner per table/figure (E1–E12 in DESIGN.md), each
// generating its workload, measuring, and rendering the table the
// paper reports. The cafe-bench command and the repository benchmarks
// are thin wrappers over this package.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"nucleodb/internal/align"
	"nucleodb/internal/baseline"
	"nucleodb/internal/db"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
)

// Config scales the experiment suite. The defaults in Quick keep every
// experiment under a few seconds; Full approximates the paper's
// relative collection sizes.
type Config struct {
	// Seed makes the whole suite deterministic.
	Seed int64
	// BaseBases is the default collection size in bases for
	// single-collection experiments.
	BaseBases int
	// ScaleBases are the collection sizes for the scaling experiment.
	ScaleBases []int
	// NumQueries and QueryLen shape the workload.
	NumQueries int
	QueryLen   int
	// Divergence is the mutation rate of homologous queries.
	Divergence float64
	// K is the interval length used outside the interval-sweep
	// experiment.
	K int
	// Candidates is the coarse budget for searches.
	Candidates int
	// TopN is the answer-list depth used for recall.
	TopN int
}

// Quick returns the configuration used by tests and the default bench
// run: large enough to show every effect, small enough to run in
// seconds.
func Quick(seed int64) Config {
	return Config{
		Seed:       seed,
		BaseBases:  2_000_000,
		ScaleBases: []int{500_000, 1_000_000, 2_000_000, 4_000_000},
		NumQueries: 20,
		QueryLen:   400,
		Divergence: 0.10,
		K:          9,
		Candidates: 100,
		TopN:       20,
	}
}

// Full returns the configuration for a full experiment run (minutes).
func Full(seed int64) Config {
	return Config{
		Seed:       seed,
		BaseBases:  8_000_000,
		ScaleBases: []int{1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000},
		NumQueries: 50,
		QueryLen:   400,
		Divergence: 0.10,
		K:          9,
		Candidates: 100,
		TopN:       20,
	}
}

// Env is a generated collection with its store, workload and memoised
// gold standard, shared by the experiments that use a single
// collection.
type Env struct {
	Cfg     Config
	Col     *gen.Collection
	Store   *db.Store
	Queries []gen.Query
	Scoring align.Scoring

	gold map[int][]baseline.Result // query index → exhaustive top-N
}

// envCache shares environments across experiments in one process: the
// suite uses the same collection for E1–E5 and E7–E8, and the memoised
// exhaustive gold standard is by far the most expensive thing to
// recompute.
var envCache = struct {
	sync.Mutex
	m map[envKey]*Env
}{m: map[envKey]*Env{}}

type envKey struct {
	seed       int64
	totalBases int
	numQueries int
	queryLen   int
	divergence float64
}

// NewEnv generates a collection of about totalBases bases and a query
// workload over it. Environments are cached per configuration, so
// experiments sharing a configuration also share the collection and
// its memoised gold standard.
func NewEnv(cfg Config, totalBases int) (*Env, error) {
	key := envKey{cfg.Seed, totalBases, cfg.NumQueries, cfg.QueryLen, cfg.Divergence}
	envCache.Lock()
	defer envCache.Unlock()
	if e, ok := envCache.m[key]; ok {
		return e, nil
	}
	e, err := newEnv(cfg, totalBases)
	if err != nil {
		return nil, err
	}
	envCache.m[key] = e
	return e, nil
}

func newEnv(cfg Config, totalBases int) (*Env, error) {
	numSeqs := totalBases / 900 // gen's default mean length
	if numSeqs < 20 {
		numSeqs = 20
	}
	gcfg := gen.DefaultConfig(numSeqs, cfg.Seed)
	col, err := gen.Generate(gcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	wcfg := gen.WorkloadConfig{
		Seed:          cfg.Seed + 1,
		NumHomologous: cfg.NumQueries * 4 / 5,
		NumRandom:     cfg.NumQueries - cfg.NumQueries*4/5,
		QueryLength:   cfg.QueryLen,
		Divergence:    cfg.Divergence,
	}
	queries, err := gen.MakeWorkload(col, wcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Env{
		Cfg:     cfg,
		Col:     col,
		Store:   db.FromRecords(col.Records),
		Queries: queries,
		Scoring: align.DefaultScoring(),
		gold:    make(map[int][]baseline.Result),
	}, nil
}

// BuildIndex builds an index over the environment's store.
func (e *Env) BuildIndex(opts index.Options) (*index.Index, time.Duration, error) {
	var idx *index.Index
	var err error
	start := time.Now()
	idx, err = index.Build(e.Store, opts)
	return idx, time.Since(start), err
}

// Gold returns the exhaustive Smith–Waterman top-N for query qi,
// computing it once and memoising. The relevance threshold excludes
// noise-level scores: an answer must reach half the query's
// self-alignment score — the "high-quality local alignment" the paper's
// abstract asks for — or twice the interval length in matches,
// whichever is larger.
func (e *Env) Gold(qi int) []baseline.Result {
	if rs, ok := e.gold[qi]; ok {
		return rs
	}
	q := e.Queries[qi].Codes
	minScore := e.goldThreshold(q)
	rs := baseline.SWScan(e.Store, q, e.Scoring, minScore, e.Cfg.TopN)
	e.gold[qi] = rs
	return rs
}

func (e *Env) goldThreshold(q []byte) int {
	half := len(q) * e.Scoring.Match / 2
	floor := 4 * e.Cfg.K * e.Scoring.Match
	if half > floor {
		return half
	}
	return floor
}

// GoldIDs returns Gold(qi) as a relevance set.
func (e *Env) GoldIDs(qi int) map[int]bool {
	set := map[int]bool{}
	for _, r := range e.Gold(qi) {
		set[r.ID] = true
	}
	return set
}

// TotalBases returns the collection size in bases.
func (e *Env) TotalBases() int { return e.Store.TotalBases() }
