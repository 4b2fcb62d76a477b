package nucleodb

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestSegmentedConcurrentHammer races the whole mutation surface
// against searches: concurrent readers (single and batch), an append
// stream, deletes, and the background compactor all run at once over a
// persisted segmented directory, with no quiescing — the snapshot-swap
// contract this PR introduces. Run under -race (make check does), it
// is the lockdown for the lock-free read path. At the end, the settled
// database must answer identically to a monolithic build of the final
// record state.
func TestSegmentedConcurrentHammer(t *testing.T) {
	recs, query, _ := testRecords(340)
	base, stream := recs[:25], recs[25:]

	dir := filepath.Join(t.TempDir(), "db")
	db, err := Build(base, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	db.SetMaxSegments(3)
	compactErrs := make(chan error, 16)
	db.StartCompactor(func(err error) {
		select {
		case compactErrs <- err:
		default:
		}
	})

	// The records deleted during the run, fixed up front so the final
	// state is known: two base records that are never strong hits plus
	// one appended later.
	dead := []int{7, 13, 25}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: single-query and batch searches across every snapshot
	// the writers publish. Results must always be well-formed and
	// internally consistent (the Desc of each result matches its ID in
	// the snapshot the search ran against, which searchGrid options
	// exercise through both coarse modes).
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			opts := DefaultSearchOptions()
			for {
				select {
				case <-stop:
					return
				default:
				}
				o := opts
				if rng.Intn(2) == 0 {
					o.CoarseMode = CoarseDiagonal
				}
				o.FineWorkers = rng.Intn(3)
				if rng.Intn(4) == 0 {
					batch, err := db.SearchBatch([]string{query, query[:100]}, o, 2)
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					for _, rs := range batch {
						for i := 1; i < len(rs); i++ {
							if rs[i].Score > rs[i-1].Score {
								t.Error("batch results unsorted")
								return
							}
						}
					}
					continue
				}
				rs, err := db.Search(query, o)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				for i := 1; i < len(rs); i++ {
					if rs[i].Score > rs[i-1].Score {
						t.Error("results unsorted")
						return
					}
				}
			}
		}(int64(350 + r))
	}

	// Explicit compactions race the background compactor too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	// Writer: append the stream in small batches, interleaving the
	// scripted deletes once their targets exist.
	deleted := 0
	for start := 0; start < len(stream); start += 5 {
		end := start + 5
		if end > len(stream) {
			end = len(stream)
		}
		if err := db.Append(stream[start:end]); err != nil {
			t.Fatalf("append: %v", err)
		}
		for deleted < len(dead) && dead[deleted] < db.NumSequences() {
			if err := db.Delete(dead[deleted]); err != nil {
				t.Fatalf("delete %d: %v", dead[deleted], err)
			}
			deleted++
		}
	}
	close(stop)
	wg.Wait()
	db.StopCompactor()
	select {
	case err := <-compactErrs:
		t.Fatalf("background compaction: %v", err)
	default:
	}

	// Settle fully and compare against the monolithic reference: all
	// records, the scripted deletions as stubs.
	db.SetMaxSegments(1)
	for {
		n, err := db.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	want := append([]Record{}, recs...)
	for _, id := range dead {
		want[id].Sequence = ""
	}
	mono, err := Build(want, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "hammer-settled", db, mono, query)

	// The persisted directory holds the same state.
	reopened, err := Open(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "hammer-reopened", reopened, mono, query)
	if got, wantN := reopened.NumSequences(), len(recs); got != wantN {
		t.Fatalf("reopened %d records, want %d", got, wantN)
	}
	for _, id := range dead {
		if reopened.Sequence(id) != "" {
			t.Errorf("deleted record %d still has bases after reopen", id)
		}
	}
}

// TestSearcherPoolSnapshotStaleness pins the pool-invalidation rule:
// a searcher checked out against one snapshot is never returned to the
// pool once a writer publishes a newer one, and fresh checkouts always
// see the new snapshot.
func TestSearcherPoolSnapshotStaleness(t *testing.T) {
	recs, query, _ := testRecords(341)
	db, err := Build(recs[:30], DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	db.SetMaxSegments(1 << 30)
	before, err := db.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Hold a searcher across an Append, then return it: the pool must
	// drop it rather than serve a stale segment set later.
	s, set, err := db.getSearcher()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(recs[30:]); err != nil {
		t.Fatal(err)
	}
	db.putSearcher(s)
	if set.NumSeqs() == db.NumSequences() {
		t.Fatal("append did not change the snapshot")
	}
	s2, set2, err := db.getSearcher()
	if err != nil {
		t.Fatal(err)
	}
	defer db.putSearcher(s2)
	if s2 == s {
		t.Error("stale searcher served from the pool after snapshot swap")
	}
	if set2.NumSeqs() != db.NumSequences() {
		t.Error("fresh checkout sees a stale snapshot")
	}

	// And post-append answers match a monolithic build of the full
	// collection, while the pre-append slice is untouched.
	mono, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mono.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	after, err := db.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Errorf("post-append results diverge from monolithic build")
	}
	if len(before) > 0 && before[0].ID >= 30 {
		t.Errorf("pre-append search saw unappended records")
	}
}
