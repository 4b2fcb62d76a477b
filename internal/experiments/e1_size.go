package experiments

import (
	"fmt"
	"io"
	"time"

	"nucleodb/internal/compress"
	"nucleodb/internal/eval"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
)

// E1Row is one interval length's index-size measurement.
type E1Row struct {
	K               int
	Offsets         bool
	DistinctTerms   int
	TotalPostings   int
	CompressedBytes int
	// GammaOffsetBytes is what CompressedBytes would be with the offset
	// gaps Elias-gamma coded, the previous format's offset code, counted
	// from code lengths; 0 without offsets.
	GammaOffsetBytes int
	RawBytes         int // uncompressed inverted file equivalent
	PercentOfText    float64
	BuildTime        time.Duration
}

// E1 reproduces Table 1: index size as a function of interval length,
// with and without occurrence offsets, compressed against the
// uncompressed equivalent and relative to the text (1 byte/base) size
// of the collection — the "index size is held to an acceptable level"
// claim.
func E1(w io.Writer, cfg Config) ([]E1Row, error) {
	env, err := NewEnv(cfg, cfg.BaseBases)
	if err != nil {
		return nil, err
	}
	textBytes := env.TotalBases()

	var rows []E1Row
	tab := eval.NewTable(
		fmt.Sprintf("E1 (Table 1): index size vs interval length — %d sequences, %.1f Mbases",
			env.Store.Len(), float64(env.TotalBases())/1e6),
		"k", "offsets", "terms", "postings", "compressed", "gamma offsets", "raw-equiv", "% of text", "build")
	for _, k := range []int{6, 8, 9, 10, 12} {
		for _, offsets := range []bool{false, true} {
			idx, buildTime, err := env.BuildIndex(index.Options{K: k, StoreOffsets: offsets})
			if err != nil {
				return nil, err
			}
			// The uncompressed equivalent stores 4 bytes of sequence id
			// + 4 bytes of count per posting, 4 bytes per offset when
			// offsets are kept, and an uncompressed lexicon entry
			// (8-byte term + 8-byte pointer).
			raw := idx.TotalPostings()*8 + idx.NumTermsIndexed()*16
			if offsets {
				coder := idx.Coder()
				for id := 0; id < env.Store.Len(); id++ {
					raw += 4 * coder.NumIntervals(idx.SeqLen(id))
				}
			}
			onDisk, err := idx.SerializedBytes()
			if err != nil {
				return nil, err
			}
			row := E1Row{
				K:               k,
				Offsets:         offsets,
				DistinctTerms:   idx.NumTermsIndexed(),
				TotalPostings:   idx.TotalPostings(),
				CompressedBytes: onDisk,
				RawBytes:        raw,
				PercentOfText:   100 * float64(onDisk) / float64(textBytes),
				BuildTime:       buildTime,
			}
			gammaCol := "-"
			if offsets {
				gammaLists, err := gammaOffsetListBytes(idx)
				if err != nil {
					return nil, err
				}
				row.GammaOffsetBytes = onDisk - idx.PostingsBytes() + gammaLists
				gammaCol = mb(row.GammaOffsetBytes)
			}
			rows = append(rows, row)
			tab.AddRow(k, offsets, row.DistinctTerms, row.TotalPostings,
				mb(row.CompressedBytes), gammaCol, mb(row.RawBytes),
				fmt.Sprintf("%.0f%%", row.PercentOfText), buildTime)
		}
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// gammaOffsetListBytes returns the bytes idx's posting lists would take
// with their offset gaps Elias-gamma coded and everything else as
// stored: Golomb identifier gaps, gamma counts, each list padded to a
// byte.
func gammaOffsetListBytes(idx *index.Index) (int, error) {
	total := 0
	var walkErr error
	idx.Terms(func(t kmer.Term, df int) {
		if walkErr != nil {
			return
		}
		entries, err := idx.Postings(t)
		if err != nil {
			walkErr = err
			return
		}
		b := compress.GolombParameter(uint64(idx.NumSeqs()), uint64(df))
		bits, prev := 0, int64(-1)
		for _, e := range entries {
			bits += compress.GolombLen(uint64(int64(e.ID)-prev), b) + compress.GammaLen(uint64(e.Count))
			prev = int64(e.ID)
			prevOff := int64(-1)
			for _, off := range e.Offsets {
				bits += compress.GammaLen(uint64(int64(off) - prevOff))
				prevOff = int64(off)
			}
		}
		total += (bits + 7) / 8
	})
	return total, walkErr
}

// mb renders a byte count in megabytes.
func mb(n int) string { return fmt.Sprintf("%.2fMB", float64(n)/1e6) }
