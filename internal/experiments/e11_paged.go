package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nucleodb/internal/core"
	"nucleodb/internal/eval"
	"nucleodb/internal/index"
)

// E11Row is one index-residency mode's measurement.
type E11Row struct {
	Mode          string
	ResidentBytes int // index bytes held in memory
	MeanTime      time.Duration
}

// E11 is an extension experiment for the paper's disk-residency
// premise ("disk costs are often the bottleneck in searching"): the
// same saved index opened fully in memory versus paged (lexicon in
// memory, posting lists read per query). Paged evaluation touches only
// the query's terms' lists, so its cost stays close to in-memory while
// resident index memory drops to the lexicon.
func E11(w io.Writer, cfg Config) ([]E11Row, error) {
	env, err := NewEnv(cfg, cfg.BaseBases)
	if err != nil {
		return nil, err
	}
	built, _, err := env.BuildIndex(index.Options{K: cfg.K})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "nucleodb-e11-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "idx.ndx")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := built.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	memIdx, err := openMem(path)
	if err != nil {
		return nil, err
	}
	diskIdx, err := index.OpenDisk(path)
	if err != nil {
		return nil, err
	}
	defer diskIdx.Close()

	opts := core.DefaultOptions()
	opts.Candidates = cfg.Candidates
	opts.Limit = cfg.TopN

	measure := func(idx *index.Index) (time.Duration, error) {
		searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
		if err != nil {
			return 0, err
		}
		var total time.Duration
		for qi := range env.Queries {
			q := env.Queries[qi].Codes
			var sErr error
			total += eval.Timed(func() {
				_, sErr = searcher.Search(q, opts)
			})
			if sErr != nil {
				return 0, sErr
			}
		}
		return total / time.Duration(len(env.Queries)), nil
	}

	memTime, err := measure(memIdx)
	if err != nil {
		return nil, err
	}
	diskTime, err := measure(diskIdx)
	if err != nil {
		return nil, err
	}

	rows := []E11Row{
		{Mode: "in-memory", ResidentBytes: memIdx.SizeBytes(), MeanTime: memTime},
		{Mode: "paged (lexicon only)", ResidentBytes: diskIdx.SizeBytes() - diskIdx.PostingsBytes(), MeanTime: diskTime},
	}
	tab := eval.NewTable(
		fmt.Sprintf("E11 (extension): index residency — %.1f Mbases, %d queries",
			float64(env.TotalBases())/1e6, len(env.Queries)),
		"mode", "resident index", "mean/query")
	for _, r := range rows {
		tab.AddRow(r.Mode, mb(r.ResidentBytes), r.MeanTime)
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func openMem(path string) (*index.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return index.Load(f)
}
