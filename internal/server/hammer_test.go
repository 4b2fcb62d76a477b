package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nucleodb"
	"nucleodb/internal/dna"
)

// The hammer tests exist to fail under -race: they drive the result
// cache and the searcher pool through their concurrent fast paths with
// constant eviction and index swaps, the two regimes where a missed
// lock or a torn pointer would actually bite in production.

// TestResultCacheHammer pounds a tiny cache (capacity far below the
// key space, so every put evicts) with concurrent gets, puts, and
// stats reads. Each body encodes its key, so a hit that returns
// another key's bytes — the signature of list/map corruption — is
// caught even when the race detector is off.
func TestResultCacheHammer(t *testing.T) {
	const (
		capacity = 8
		keySpace = 64
		workers  = 8
		opsEach  = 2000
	)
	c := newResultCache(capacity)
	var gets, hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("key-%d", rng.Intn(keySpace))
				switch rng.Intn(4) {
				case 0:
					c.put(cacheKey{query: key}, []byte("body:"+key))
				case 1:
					_ = c.Len()
					_ = c.stats()
				default:
					gets.Add(1)
					if body, ok := c.get(cacheKey{query: key}); ok {
						hits.Add(1)
						if string(body) != "body:"+key {
							t.Errorf("cache returned %q for %q", body, key)
						}
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()

	if n := c.Len(); n > capacity {
		t.Errorf("cache holds %d entries, capacity %d", n, capacity)
	}
	st := c.stats()
	if st.Hits+st.Misses != gets.Load() {
		t.Errorf("hits %d + misses %d != gets %d", st.Hits, st.Misses, gets.Load())
	}
	if st.Hits != hits.Load() {
		t.Errorf("stats hits %d, observed %d", st.Hits, hits.Load())
	}
	// The cache saw real contention for the eviction path, not a
	// degenerate all-miss run.
	if st.Hits == 0 {
		t.Error("hammer produced no hits; key space or op mix is broken")
	}
}

// TestServerHammerAcrossAppends drives the full service path — worker
// pool, searcher pool, result cache — through waves of concurrent
// searches separated by Appends. Each wave quiesces before its Append
// so the swap boundary is deterministic (truly overlapped traffic is
// TestServerHammerLiveCompaction's job), while direct get/put traffic
// on the server's result cache keeps hammering straight through the
// snapshot swap, since the cache never touches the index. After every
// swap the next wave's fresh queries must still answer 200 with
// results, proving stale pooled searchers are dropped, not reused.
func TestServerHammerAcrossAppends(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, func(cfg *Config) {
		cfg.Workers = 8
		cfg.QueueDepth = 64
		cfg.CacheSize = 4 // force eviction under the wave load
	})
	h := s.Handler()

	// Cache-only traffic runs for the whole test including during
	// Appends: gets and puts over a key space wider than the capacity,
	// so evictions overlap the snapshot swap. It bypasses the handler so
	// cache behaviour is isolated from search behaviour.
	stop := make(chan struct{})
	var cacheWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		cacheWG.Add(1)
		go func(seed int64) {
			defer cacheWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("bg-%d", rng.Intn(16))
				if rng.Intn(2) == 0 {
					s.cache.put(cacheKey{query: key}, []byte("body:"+key))
				} else if body, ok := s.cache.get(cacheKey{query: key}); ok && string(body) != "body:"+key {
					t.Errorf("cache returned %q for %q", body, key)
					return
				}
			}
		}(int64(w))
	}

	const waves = 3
	for wave := 0; wave < waves; wave++ {
		queries := testQueries(db, 16, int64(100+wave))
		var waveWG sync.WaitGroup
		for i, q := range queries {
			waveWG.Add(1)
			go func(i int, q string) {
				defer waveWG.Done()
				// nocache on half the queries keeps the searcher pool
				// itself under load instead of the cache absorbing it.
				path := "/search?q=" + q
				if i%2 == 0 {
					path += "&nocache=1"
				}
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("wave %d: status %d: %s", wave, rec.Code, rec.Body.String())
					return
				}
				if !strings.Contains(rec.Body.String(), `"results"`) {
					t.Errorf("wave %d: response lacks results: %s", wave, rec.Body.String())
				}
			}(i, q)
		}
		waveWG.Wait() // deterministic swap boundary for the wave structure

		rng := rand.New(rand.NewSource(int64(wave)))
		recs := make([]nucleodb.Record, 4)
		for i := range recs {
			codes := make([]byte, 200)
			for j := range codes {
				codes[j] = byte(rng.Intn(4))
			}
			recs[i] = nucleodb.Record{
				Desc:     fmt.Sprintf("appended-%d-%d", wave, i),
				Sequence: dna.String(codes),
			}
		}
		if err := db.Append(recs); err != nil {
			t.Fatalf("wave %d: append: %v", wave, err)
		}
	}

	// A record appended in the last wave must be findable, proving the
	// post-swap searchers see the merged index.
	final := db.Sequence(db.NumSequences() - 1)
	req := httptest.NewRequest(http.MethodGet, "/search?q="+final[:100]+"&nocache=1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("appended-record query: status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "appended-") {
		t.Errorf("appended record not found after index swaps: %s", rec.Body.String())
	}

	close(stop)
	cacheWG.Wait()

	if st := s.CacheStats(); st.Entries > 4 {
		t.Errorf("cache grew past its capacity: %d entries", st.Entries)
	}
}

// TestServerHammerLiveCompaction is the no-quiesce hammer the
// segmented index makes legal: HTTP searches, Appends, Deletes, and
// background compaction all overlap freely. Every in-flight request
// runs against whichever segment-set snapshot it pinned at checkout,
// so every response must be a well-formed 200 no matter how many
// swaps happen mid-flight. Run under -race this is the service-level
// lockdown for the lock-free read path.
func TestServerHammerLiveCompaction(t *testing.T) {
	db := testDB(t)
	db.SetMaxSegments(3)
	compactErrs := make(chan error, 8)
	db.StartCompactor(func(err error) {
		select {
		case compactErrs <- err:
		default:
		}
	})
	defer db.StopCompactor()

	s := newTestServer(t, db, func(cfg *Config) {
		cfg.Workers = 8
		cfg.QueueDepth = 64
		cfg.CacheSize = 4
	})
	h := s.Handler()
	queries := testQueries(db, 8, 600)

	// Searchers: continuous handler traffic with no coordination with
	// the writer whatsoever.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				path := "/search?q=" + queries[rng.Intn(len(queries))]
				if rng.Intn(2) == 0 {
					path += "&nocache=1"
				}
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d during live compaction: %s", rec.Code, rec.Body.String())
					return
				}
				if !strings.Contains(rec.Body.String(), `"results"`) {
					t.Errorf("response lacks results: %s", rec.Body.String())
					return
				}
			}
		}(int64(700 + w))
	}

	// Writer: a stream of small Appends plus a few Deletes, each one
	// triggering the background compactor, all while searches fly.
	rng := rand.New(rand.NewSource(800))
	for round := 0; round < 10; round++ {
		recs := make([]nucleodb.Record, 3)
		for i := range recs {
			codes := make([]byte, 200)
			for j := range codes {
				codes[j] = byte(rng.Intn(4))
			}
			recs[i] = nucleodb.Record{
				Desc:     fmt.Sprintf("live-%d-%d", round, i),
				Sequence: dna.String(codes),
			}
		}
		if err := db.Append(recs); err != nil {
			t.Fatalf("round %d: append: %v", round, err)
		}
		if round%3 == 2 {
			if err := db.Delete(db.NumSequences() - 1); err != nil {
				t.Fatalf("round %d: delete: %v", round, err)
			}
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

	// The compactor had every chance to run; the folded database still
	// finds a record appended mid-hammer.
	if got := db.NumSegments(); got > 3+1 {
		t.Logf("note: %d segments after hammer (compactor may not have caught up)", got)
	}
	target := db.Sequence(db.NumSequences() - 2) // -1 may be tombstoned
	req := httptest.NewRequest(http.MethodGet, "/search?q="+target[:100]+"&nocache=1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-hammer query: status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "live-") {
		t.Errorf("record appended during the hammer not found: %s", rec.Body.String())
	}
}
