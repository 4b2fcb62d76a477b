package index

import (
	"fmt"

	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// Merge combines two indexes built with the same options into one, as
// if the second collection's sequences had been appended to the first
// (the second index's sequence ids are shifted by the first's count).
// Collections can thus be indexed in segments and merged, the standard
// recipe for incremental growth.
//
// Posting lists are re-encoded because the Golomb parameters depend on
// the merged sequence count; the result is byte-identical to an index
// built over the concatenated collection, except for the stop list,
// which is the union of the inputs' (stopping decisions are
// per-segment; rebuild to re-stop globally).
func Merge(a, b *Index) (*Index, error) {
	if a.opts != b.opts {
		return nil, fmt.Errorf("index: merge options differ: %+v vs %+v", a.opts, b.opts)
	}
	numSeqs := a.numSeqs + b.numSeqs
	out := &Index{
		opts:    a.opts,
		coder:   a.coder,
		numSeqs: numSeqs,
		seqLens: make([]int32, 0, numSeqs),
	}
	out.seqLens = append(out.seqLens, a.seqLens...)
	out.seqLens = append(out.seqLens, b.seqLens...)

	// Union of stop lists, ascending.
	out.stopped = mergeSorted(a.stopped, b.stopped)

	// Walk both lexicons in term order.
	ai, bi := 0, 0
	shift := uint32(a.numSeqs)
	var entries []postings.Entry
	appendList := func(entries []postings.Entry) error {
		buf, err := postings.Encode(entries, numSeqs, out.opts.StoreOffsets)
		if err != nil {
			return err
		}
		out.dfs = append(out.dfs, uint32(len(entries)))
		out.offs = append(out.offs, uint64(len(out.blob)))
		out.lens = append(out.lens, uint32(len(buf)))
		out.blob = append(out.blob, buf...)
		return nil
	}
	for ai < len(a.terms) || bi < len(b.terms) {
		var term uint64
		takeA, takeB := false, false
		switch {
		case ai >= len(a.terms):
			term, takeB = b.terms[bi], true
		case bi >= len(b.terms):
			term, takeA = a.terms[ai], true
		case a.terms[ai] < b.terms[bi]:
			term, takeA = a.terms[ai], true
		case a.terms[ai] > b.terms[bi]:
			term, takeB = b.terms[bi], true
		default:
			term, takeA, takeB = a.terms[ai], true, true
		}
		entries = entries[:0]
		if takeA {
			list, err := a.Postings(kmer.Term(term))
			if err != nil {
				return nil, fmt.Errorf("index: merge term %d: %w", term, err)
			}
			entries = append(entries, list...)
			ai++
		}
		if takeB {
			list, err := b.Postings(kmer.Term(term))
			if err != nil {
				return nil, fmt.Errorf("index: merge term %d: %w", term, err)
			}
			for _, e := range list {
				e.ID += shift
				entries = append(entries, e)
			}
			bi++
		}
		out.terms = append(out.terms, term)
		if err := appendList(entries); err != nil {
			return nil, fmt.Errorf("index: merge term %d: %w", term, err)
		}
	}
	return out, nil
}

func mergeSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i >= len(a):
			out = append(out, b[j])
			j++
		case j >= len(b):
			out = append(out, a[i])
			i++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
