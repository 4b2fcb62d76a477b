package postings

import (
	"math/rand"
	"testing"

	"nucleodb/internal/gen"
	"nucleodb/internal/kmer"
)

// benchLists encodes the posting lists a 1 000-base homologous query
// touches in the collection the served-path benchmark builds (17 777
// generated sequences, 9-base intervals) — the same
// lists, byte for byte, that index.Build would hand the coarse walk —
// without importing the index package (which imports this one).
func benchLists(b *testing.B) (lists [][]byte, dfs []int, seqs Seqs, postings int) {
	b.Helper()
	col, err := gen.Generate(gen.DefaultConfig(17777, 1))
	if err != nil {
		b.Fatal(err)
	}
	coder := kmer.MustCoder(9)
	rng := rand.New(rand.NewSource(1))
	var root []byte
	for id, f := range col.FamilyOf {
		if f >= 0 && len(col.Records[id].Codes) >= 1000 {
			root = col.Records[id].Codes
			break
		}
	}
	query := gen.Fragment(rng, root, 1000)
	byTerm := map[kmer.Term][]Entry{}
	coder.ExtractFunc(query, func(_ int, t kmer.Term) { byTerm[t] = nil })
	for id, rec := range col.Records {
		coder.ExtractFunc(rec.Codes, func(pos int, t kmer.Term) {
			es, ok := byTerm[t]
			if !ok {
				return
			}
			if n := len(es); n > 0 && es[n-1].ID == uint32(id) {
				es[n-1].Count++
				es[n-1].Offsets = append(es[n-1].Offsets, uint32(pos))
			} else {
				es = append(es, Entry{ID: uint32(id), Count: 1, Offsets: []uint32{uint32(pos)}})
			}
			byTerm[t] = es
		})
	}
	lens := make([]int32, len(col.Records))
	for id, rec := range col.Records {
		lens[id] = int32(len(rec.Codes))
	}
	seqs = NewSeqs(lens)
	for _, es := range byTerm {
		buf, err := Encode(es, seqs)
		if err != nil {
			b.Fatal(err)
		}
		lists = append(lists, buf)
		dfs = append(dfs, len(es))
		postings += len(es)
	}
	return lists, dfs, seqs, postings
}

// BenchmarkPostingsDecode reports nanoseconds per posting for the
// production iterator and for the frozen per-call-checked reference,
// offsets materialised — what bench/'s postings.decode_ns_per_posting
// times on the served path.
func BenchmarkPostingsDecode(b *testing.B) {
	lists, dfs, seqs, postings := benchLists(b)
	b.Run("word", func(b *testing.B) {
		var it Iterator
		for i := 0; i < b.N; i++ {
			for l, buf := range lists {
				it.Reset(buf, dfs[l], seqs)
				for it.Next() {
				}
				if it.Err() != nil {
					b.Fatal(it.Err())
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*postings), "ns/posting")
	})
	// ids decodes the id streams alone, as the coarse walk does; ids+all
	// adds every posting's offsets through Offsets' walk, as the
	// diagonal coarse mode does.
	b.Run("ids", func(b *testing.B) {
		var ids, counts []uint32
		for i := 0; i < b.N; i++ {
			for l, buf := range lists {
				var err error
				if ids, counts, _, err = IDs(ids[:0], counts[:0], buf, dfs[l], seqs, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*postings), "ns/posting")
	})
	b.Run("ids+all", func(b *testing.B) {
		var ids, counts, offs []uint32
		for i := 0; i < b.N; i++ {
			for l, buf := range lists {
				var from int64
				var err error
				if ids, counts, from, err = IDs(ids[:0], counts[:0], buf, dfs[l], seqs, 0); err != nil {
					b.Fatal(err)
				}
				if offs, err = Offsets(offs[:0], buf, from, ids, counts, 0, nil, seqs); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*postings), "ns/posting")
	})
	// two and four walk the lists in pairs and fours, one iterator each,
	// advancing them in turn: independent bit windows an out-of-order
	// core could overlap, where one list is one serial dependency chain.
	// Candidates are sums over postings, so a coarse walk could take
	// them in any interleaving; these rows price whether it should (it
	// should not: EXPERIMENTS E20's epilogue).
	interleaved := func(b *testing.B, w int) {
		var its [4]Iterator
		for i := 0; i < b.N; i++ {
			for l := 0; l < len(lists); l += w {
				n := min(w, len(lists)-l)
				for j := 0; j < n; j++ {
					its[j].Reset(lists[l+j], dfs[l+j], seqs)
				}
				for more := true; more; {
					more = false
					for j := 0; j < n; j++ {
						if its[j].Next() {
							more = true
						}
					}
				}
				for j := 0; j < n; j++ {
					if its[j].Err() != nil {
						b.Fatal(its[j].Err())
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*postings), "ns/posting")
	}
	b.Run("two", func(b *testing.B) { interleaved(b, 2) })
	b.Run("four", func(b *testing.B) { interleaved(b, 4) })
	b.Run("ref", func(b *testing.B) {
		var it refIterator
		for i := 0; i < b.N; i++ {
			for l, buf := range lists {
				it.Reset(buf, dfs[l], seqs)
				for it.Next() {
				}
				if it.Err() != nil {
					b.Fatal(it.Err())
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*postings), "ns/posting")
	})
}
