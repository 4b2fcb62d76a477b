package experiments

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"nucleodb/internal/compress"
	"nucleodb/internal/eval"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
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
	// from code lengths; 0 without offsets. The rows without offsets are
	// counted from code lengths too, and have no BuildTime.
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
		idx, buildTime, err := env.BuildIndex(index.Options{K: k})
		if err != nil {
			return nil, err
		}
		onDisk, err := idx.SerializedBytes()
		if err != nil {
			return nil, err
		}
		// Every index stores offsets. The offsets-free row and the gamma
		// column are the same index with its lists recoded, counted from
		// code lengths: the offset gaps dropped, or Elias-gamma coded (the
		// previous format's code). The header's offsets flag is one byte
		// either way.
		_, without, err := recodedBytes(idx, func(uint64) int { return 0 })
		if err != nil {
			return nil, err
		}
		_, gamma, err := recodedBytes(idx, compress.GammaLen)
		if err != nil {
			return nil, err
		}
		// The uncompressed equivalent stores 4 bytes of sequence id + 4
		// bytes of count per posting, 4 bytes per offset when offsets are
		// kept, and an uncompressed lexicon entry (8-byte term + 8-byte
		// pointer).
		raw := idx.TotalPostings()*8 + idx.NumTermsIndexed()*16
		rawOffsets := 0
		coder := idx.Coder()
		for id := 0; id < env.Store.Len(); id++ {
			rawOffsets += 4 * coder.NumIntervals(idx.SeqLen(id))
		}
		for _, row := range []E1Row{
			{Offsets: false, CompressedBytes: without, RawBytes: raw},
			{Offsets: true, CompressedBytes: onDisk, GammaOffsetBytes: gamma, RawBytes: raw + rawOffsets, BuildTime: buildTime},
		} {
			row.K = k
			row.DistinctTerms = idx.NumTermsIndexed()
			row.TotalPostings = idx.TotalPostings()
			row.PercentOfText = 100 * float64(row.CompressedBytes) / float64(textBytes)
			gammaCol, buildCol := "-", "-"
			if row.Offsets {
				gammaCol, buildCol = mb(row.GammaOffsetBytes), row.BuildTime.String()
			}
			rows = append(rows, row)
			tab.AddRow(k, row.Offsets, row.DistinctTerms, row.TotalPostings,
				mb(row.CompressedBytes), gammaCol, mb(row.RawBytes),
				fmt.Sprintf("%.0f%%", row.PercentOfText), buildCol)
		}
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// recodedBytes returns the bytes idx's posting lists would take with
// each offset gap coded in offsetLen(gap) bits and everything else as
// stored — Golomb identifier gaps, gamma counts, each list padded to a
// byte — and the bytes the whole index would then take on disk, whose
// lexicon records each list's length and the blob's as uvarints.
func recodedBytes(idx *index.Index, offsetLen func(gap uint64) int) (lists, onDisk int, err error) {
	if onDisk, err = idx.SerializedBytes(); err != nil {
		return 0, 0, err
	}
	uvarintLen := func(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }
	stored := 0
	var it postings.Iterator
	idx.Terms(func(t kmer.Term, df int) {
		if err != nil {
			return
		}
		var entries []postings.Entry
		if entries, err = idx.Postings(t); err != nil {
			return
		}
		b := compress.GolombParameter(uint64(idx.NumSeqs()), uint64(df))
		bits, prev := 0, int64(-1)
		for _, e := range entries {
			bits += compress.GolombLen(uint64(int64(e.ID)-prev), b) + compress.GammaLen(uint64(e.Count))
			prev = int64(e.ID)
			prevOff := int64(-1)
			for _, off := range e.Offsets {
				bits += offsetLen(uint64(int64(off) - prevOff))
				prevOff = int64(off)
			}
		}
		n := (bits + 7) / 8
		_, was := idx.ReaderStats(t, &it)
		lists += n
		stored += was
		onDisk += n - was + uvarintLen(n) - uvarintLen(was)
	})
	onDisk += uvarintLen(lists) - uvarintLen(stored)
	return lists, onDisk, err
}

// mb renders a byte count in megabytes.
func mb(n int) string { return fmt.Sprintf("%.2fMB", float64(n)/1e6) }
