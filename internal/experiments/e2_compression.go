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
)

// E2Row is one coding scheme's size/speed measurement over the real
// posting-gap streams of an index.
type E2Row struct {
	Scheme       compress.Scheme
	Bytes        int
	BitsPerGap   float64
	DecodeTime   time.Duration
	DecodeMIntPS float64 // millions of integers decoded per second
}

// E2 reproduces Table 2: the effect of the integer-coding scheme on
// index size and decode speed. The gap streams are the actual
// sequence-identifier gaps of an index built over the test collection,
// so the distributions match what the real index compresses; as in the
// real index, the Golomb/Rice parameters come from the lexicon's
// document frequency rather than a stored header.
func E2(w io.Writer, cfg Config) ([]E2Row, error) {
	env, err := NewEnv(cfg, cfg.BaseBases)
	if err != nil {
		return nil, err
	}
	idx, _, err := env.BuildIndex(index.Options{K: cfg.K})
	if err != nil {
		return nil, err
	}
	numSeqs := uint64(env.Store.Len())

	// Extract every list's id-gap stream; boundaries are preserved so
	// parameterised schemes stay per-list as in the real index.
	var lists [][]uint64
	total := 0
	var decodeErr error
	idx.Terms(func(t kmer.Term, df int) {
		if decodeErr != nil {
			return
		}
		entries, err := idx.Postings(t)
		if err != nil {
			decodeErr = err
			return
		}
		gaps := make([]uint64, len(entries))
		prev := int64(-1)
		for i, e := range entries {
			gaps[i] = uint64(int64(e.ID) - prev)
			prev = int64(e.ID)
		}
		lists = append(lists, gaps)
		total += len(gaps)
	})
	if decodeErr != nil {
		return nil, decodeErr
	}

	var rows []E2Row
	tab := eval.NewTable(
		fmt.Sprintf("E2 (Table 2): postings compression schemes — %d lists, %d gaps", len(lists), total),
		"scheme", "size", "bits/gap", "decode", "Mints/s")
	for _, scheme := range compress.Schemes {
		encoded := make([][]byte, len(lists))
		totalBits := 0
		for i, gaps := range lists {
			buf, bits, err := encodeListGaps(scheme, gaps, numSeqs)
			if err != nil {
				return nil, err
			}
			encoded[i] = buf
			totalBits += bits
		}
		// Size is exact coded bits: per-list byte padding is a storage
		// detail of the on-disk index, not a property of the code.
		bytes := (totalBits + 7) / 8
		// Decode timing over several passes for stability.
		const passes = 3
		scratch := make([]uint64, maxLen(lists))
		start := time.Now()
		for p := 0; p < passes; p++ {
			for i, buf := range encoded {
				if err := decodeListGaps(scheme, buf, scratch[:len(lists[i])], numSeqs); err != nil {
					return nil, err
				}
			}
		}
		decode := time.Since(start) / passes
		row := E2Row{
			Scheme:     scheme,
			Bytes:      bytes,
			BitsPerGap: 8 * float64(bytes) / float64(total),
			DecodeTime: decode,
		}
		if secs := decode.Seconds(); secs > 0 {
			row.DecodeMIntPS = float64(total) / secs / 1e6
		}
		rows = append(rows, row)
		tab.AddRow(scheme.String(), mb(bytes),
			fmt.Sprintf("%.2f", row.BitsPerGap), decode,
			fmt.Sprintf("%.1f", row.DecodeMIntPS))
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
		if _, err := e2Offsets(w, env, cfg); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// offsetSchemes are the codes E2's offset table compares: gamma, the
// offset code of the previous index format, and the two parameterised
// codes of the paper's local model.
var offsetSchemes = []compress.Scheme{compress.SchemeGamma, compress.SchemeGolomb, compress.SchemeRice}

// e2Offsets is E2's second table: the offset-gap streams of the index
// with offsets, one per posting, coded as the index codes them — a
// Golomb or Rice parameter from (sequence length, count), both of which
// the decoder knows, so no header is written. The parameter is computed
// per posting here; the index reads a count-1 posting's Rice parameter
// from a per-sequence table instead.
func e2Offsets(w io.Writer, env *Env, cfg Config) ([]E2Row, error) {
	idx, _, err := env.BuildIndex(index.Options{K: cfg.K})
	if err != nil {
		return nil, err
	}
	// One flat gap stream; runs[i] ends posting i's gaps and carries its
	// sequence's length.
	type run struct{ end, length uint32 }
	var (
		gaps    []uint64
		runs    []run
		walkErr error
	)
	idx.Terms(func(t kmer.Term, df int) {
		if walkErr != nil {
			return
		}
		entries, err := idx.Postings(t)
		if err != nil {
			walkErr = err
			return
		}
		for _, e := range entries {
			prev := int64(-1)
			for _, off := range e.Offsets {
				gaps = append(gaps, uint64(int64(off)-prev))
				prev = int64(off)
			}
			runs = append(runs, run{uint32(len(gaps)), uint32(idx.SeqLen(int(e.ID)))})
		}
	})
	if walkErr != nil {
		return nil, walkErr
	}
	code := func(scheme compress.Scheme, r run, count int) (b uint64, k uint) {
		switch scheme {
		case compress.SchemeGolomb:
			b = compress.GolombParameter(uint64(r.length), uint64(count))
		case compress.SchemeRice:
			k = compress.RiceParameter(uint64(r.length), uint64(count))
		}
		return b, k
	}

	var rows []E2Row
	tab := eval.NewTable(
		fmt.Sprintf("E2 (offsets): offset-gap codes, parameters from (sequence length, count) — %d postings, %d offsets", len(runs), len(gaps)),
		"scheme", "size", "bits/offset", "decode", "Mints/s")
	dst := make([]uint64, len(gaps))
	for _, scheme := range offsetSchemes {
		bw := compress.NewBitWriter(len(gaps) * 2)
		start := 0
		for _, r := range runs {
			count := int(r.end) - start
			b, k := code(scheme, r, count)
			for _, g := range gaps[start:r.end] {
				switch scheme {
				case compress.SchemeGamma:
					compress.PutGamma(bw, g)
				case compress.SchemeGolomb:
					compress.PutGolomb(bw, g, b)
				default:
					compress.PutRice(bw, g, k)
				}
			}
			start = int(r.end)
		}
		buf, bits := bw.Bytes(), bw.BitLen()
		const passes = 3
		begin := time.Now()
		for p := 0; p < passes; p++ {
			br := compress.NewBitReader(buf)
			start := 0
			for _, r := range runs {
				count := int(r.end) - start
				b, k := code(scheme, r, count)
				for i := start; i < int(r.end); i++ {
					var err error
					switch scheme {
					case compress.SchemeGamma:
						dst[i], err = compress.GetGamma(br)
					case compress.SchemeGolomb:
						dst[i], err = compress.GetGolomb(br, b)
					default:
						dst[i], err = compress.GetRice(br, k)
					}
					if err != nil {
						return nil, err
					}
				}
				start = int(r.end)
			}
		}
		decode := time.Since(begin) / passes
		for i, g := range gaps {
			if dst[i] != g {
				return nil, fmt.Errorf("experiments: %v offset gap %d decoded as %d, want %d", scheme, i, dst[i], g)
			}
		}
		row := E2Row{
			Scheme:     scheme,
			Bytes:      (bits + 7) / 8,
			BitsPerGap: float64(bits) / float64(len(gaps)),
			DecodeTime: decode,
		}
		if secs := decode.Seconds(); secs > 0 {
			row.DecodeMIntPS = float64(len(gaps)) / secs / 1e6
		}
		rows = append(rows, row)
		tab.AddRow(scheme.String(), mb(row.Bytes), fmt.Sprintf("%.2f", row.BitsPerGap), decode,
			fmt.Sprintf("%.1f", row.DecodeMIntPS))
	}
	if w != nil {
		if err := tab.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// encodeListGaps codes one list's gaps the way the index would: the
// Golomb/Rice parameter is derived from (universe, document frequency),
// which the lexicon stores, so no header is written. It returns the
// byte buffer for decode timing and the exact bit length for size
// accounting.
func encodeListGaps(scheme compress.Scheme, gaps []uint64, numSeqs uint64) ([]byte, int, error) {
	switch scheme {
	case compress.SchemeNone:
		out := make([]byte, 8*len(gaps))
		for i, v := range gaps {
			binary.LittleEndian.PutUint64(out[8*i:], v)
		}
		return out, 64 * len(gaps), nil
	case compress.SchemeVByte:
		var out []byte
		for _, v := range gaps {
			out = compress.PutVByte(out, v)
		}
		return out, 8 * len(out), nil
	}
	w := compress.NewBitWriter(len(gaps))
	switch scheme {
	case compress.SchemeGamma:
		for _, v := range gaps {
			compress.PutGamma(w, v)
		}
	case compress.SchemeDelta:
		for _, v := range gaps {
			compress.PutDelta(w, v)
		}
	case compress.SchemeGolomb:
		b := compress.GolombParameter(numSeqs, uint64(len(gaps)))
		for _, v := range gaps {
			compress.PutGolomb(w, v, b)
		}
	case compress.SchemeRice:
		k := compress.RiceParameter(numSeqs, uint64(len(gaps)))
		for _, v := range gaps {
			compress.PutRice(w, v, k)
		}
	default:
		return nil, 0, fmt.Errorf("experiments: unknown scheme %v", scheme)
	}
	return w.Bytes(), w.BitLen(), nil
}

func decodeListGaps(scheme compress.Scheme, buf []byte, dst []uint64, numSeqs uint64) error {
	switch scheme {
	case compress.SchemeNone:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		return nil
	case compress.SchemeVByte:
		pos := 0
		for i := range dst {
			v, n, err := compress.GetVByte(buf[pos:])
			if err != nil {
				return err
			}
			dst[i] = v
			pos += n
		}
		return nil
	}
	r := compress.NewBitReader(buf)
	var err error
	switch scheme {
	case compress.SchemeGamma:
		for i := range dst {
			if dst[i], err = compress.GetGamma(r); err != nil {
				return err
			}
		}
	case compress.SchemeDelta:
		for i := range dst {
			if dst[i], err = compress.GetDelta(r); err != nil {
				return err
			}
		}
	case compress.SchemeGolomb:
		b := compress.GolombParameter(numSeqs, uint64(len(dst)))
		for i := range dst {
			if dst[i], err = compress.GetGolomb(r, b); err != nil {
				return err
			}
		}
	case compress.SchemeRice:
		k := compress.RiceParameter(numSeqs, uint64(len(dst)))
		for i := range dst {
			if dst[i], err = compress.GetRice(r, k); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("experiments: unknown scheme %v", scheme)
	}
	return nil
}

func maxLen(lists [][]uint64) int {
	m := 0
	for _, l := range lists {
		if len(l) > m {
			m = len(l)
		}
	}
	return m
}
