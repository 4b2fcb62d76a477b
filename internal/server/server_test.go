package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"nucleodb"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
)

// testDB builds a small deterministic database with homologous
// families, so queries drawn from records have real answers.
func testDB(t *testing.T) *nucleodb.Database {
	t.Helper()
	col, err := gen.Generate(gen.DefaultConfig(80, 42))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]nucleodb.Record, len(col.Records))
	for i, r := range col.Records {
		recs[i] = nucleodb.Record{Desc: r.Desc, Sequence: dna.String(r.Codes)}
	}
	db, err := nucleodb.Build(recs, nucleodb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// testQueries derives nq fragment queries from the database.
func testQueries(db *nucleodb.Database, nq int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	queries := make([]string, 0, nq)
	for len(queries) < nq {
		seq := db.Sequence(rng.Intn(db.NumSequences()))
		if len(seq) < 120 {
			continue
		}
		start := rng.Intn(len(seq) - 100)
		queries = append(queries, seq[start:start+100])
	}
	return queries
}

func newTestServer(t *testing.T, db *nucleodb.Database, mutate func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 8
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func post(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// TestSearchMatchesLibrary: /search returns exactly the hits the
// library Search returns, via both GET and POST.
func TestSearchMatchesLibrary(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, nil)
	for i, q := range testQueries(db, 4, 1) {
		want, err := db.Search(q, nucleodb.DefaultSearchOptions())
		if err != nil {
			t.Fatal(err)
		}
		rec, body := get(t, s.Handler(), "/search?q="+q)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, rec.Code, body)
		}
		var resp SearchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Results) != len(want) {
			t.Fatalf("query %d: %d hits via HTTP, %d via library", i, len(resp.Results), len(want))
		}
		for k, h := range resp.Results {
			if h.ID != want[k].ID || h.Score != want[k].Score || h.Desc != want[k].Desc {
				t.Fatalf("query %d hit %d: got %+v want %+v", i, k, h, want[k])
			}
		}
		recP, bodyP := post(t, s.Handler(), "/search", map[string]any{"query": q})
		if recP.Code != http.StatusOK || !bytes.Equal(bodyP, body) {
			t.Fatalf("query %d: POST diverged from GET (%d):\n%s\nvs\n%s", i, recP.Code, bodyP, body)
		}
	}
}

// TestCacheHitIdenticalBody: the second identical request is served
// from cache with a byte-identical body and the hit header.
func TestCacheHitIdenticalBody(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, nil)
	q := testQueries(db, 1, 2)[0]
	rec1, body1 := get(t, s.Handler(), "/search?q="+q)
	rec2, body2 := get(t, s.Handler(), "/search?q="+q)
	if rec1.Header().Get("X-Cafe-Cache") != "miss" || rec2.Header().Get("X-Cafe-Cache") != "hit" {
		t.Fatalf("cache headers = %q, %q; want miss, hit",
			rec1.Header().Get("X-Cafe-Cache"), rec2.Header().Get("X-Cafe-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body diverged:\n%s\nvs\n%s", body1, body2)
	}
	// Case-normalisation: the lowercased query is the same cache entry.
	rec3, body3 := get(t, s.Handler(), "/search?q="+strings.ToLower(q))
	if rec3.Header().Get("X-Cafe-Cache") != "hit" || !bytes.Equal(body1, body3) {
		t.Fatalf("lowercased query missed the cache (header %q)", rec3.Header().Get("X-Cafe-Cache"))
	}
	// The default coarse mode named explicitly is the same answer, so the
	// same entry: the key holds the resolved mode, not its spelling.
	rec4, body4 := get(t, s.Handler(), "/search?q="+q+"&coarse_mode=distinct")
	if rec4.Header().Get("X-Cafe-Cache") != "hit" || !bytes.Equal(body1, body4) {
		t.Fatalf("coarse_mode=distinct missed the default's entry (header %q)", rec4.Header().Get("X-Cafe-Cache"))
	}
	if cs := s.CacheStats(); cs.Hits != 3 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 3 hits / 1 miss / 1 entry", cs)
	}
}

// TestCacheKeyCoversEveryOption: setting any SearchOptions field away
// from its default changes the cache key — so an option added later is
// in the key without anyone remembering to put it there.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	base := nucleodb.DefaultSearchOptions()
	for _, f := range reflect.VisibleFields(reflect.TypeOf(base)) {
		opts := base
		v := reflect.ValueOf(&opts).Elem().FieldByIndex(f.Index)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("field %s: kind %s has no non-default value here", f.Name, v.Kind())
		}
		if (cacheKey{"ACGT", opts}) == (cacheKey{"ACGT", base}) {
			t.Errorf("field %s: the cache key ignores it", f.Name)
		}
	}
}

// TestWriteBodyLeavesBackingUntouched is the regression test for the
// cached-body race: writeBody used to append the trailing newline into
// the caller's slice, scribbling on spare capacity that on a cache hit
// belongs to an entry shared across concurrent requests.
func TestWriteBodyLeavesBackingUntouched(t *testing.T) {
	backing := make([]byte, 8, 16)
	copy(backing, `{"ok":1}`)
	spare := backing[8:16:16]
	for i := range spare {
		spare[i] = 0xAA
	}
	rec := httptest.NewRecorder()
	writeBody(rec, http.StatusOK, backing[:8])
	if got := rec.Body.String(); got != `{"ok":1}`+"\n" {
		t.Fatalf("response body = %q, want body plus newline", got)
	}
	for i, b := range spare {
		if b != 0xAA {
			t.Fatalf("writeBody scribbled on spare capacity at byte %d: 0x%02X", i, b)
		}
	}
}

// TestCacheOnOffEquivalence is the cache property test: for random
// queries in random order with repeats, a cache-enabled server and a
// cache-disabled server return byte-identical bodies.
func TestCacheOnOffEquivalence(t *testing.T) {
	db := testDB(t)
	cached := newTestServer(t, db, nil)
	uncached := newTestServer(t, db, func(c *Config) { c.CacheSize = 0 })
	rng := rand.New(rand.NewSource(7))
	queries := testQueries(db, 6, 3)
	for i := 0; i < 40; i++ {
		q := queries[rng.Intn(len(queries))]
		path := "/search?q=" + q
		if rng.Intn(2) == 0 {
			path += "&limit=5"
		}
		recA, bodyA := get(t, cached.Handler(), path)
		recB, bodyB := get(t, uncached.Handler(), path)
		if recA.Code != http.StatusOK || recB.Code != http.StatusOK {
			t.Fatalf("request %d: status %d vs %d", i, recA.Code, recB.Code)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("request %d (%s): cached body diverged from uncached:\n%s\nvs\n%s", i, path, bodyA, bodyB)
		}
	}
	if cs := cached.CacheStats(); cs.Hits == 0 {
		t.Fatal("cache property test never hit the cache")
	}
	if cs := uncached.CacheStats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", cs)
	}
}

// TestTimeoutReturns504: a request with timeout=1ns returns 504 and
// does not wedge a worker — the same server answers normally after.
func TestTimeoutReturns504(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, func(c *Config) { c.Workers = 1 })
	q := testQueries(db, 1, 4)[0]
	rec, body := get(t, s.Handler(), "/search?q="+q+"&timeout=1ns&nocache=1")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("504 body not an error JSON: %s", body)
	}
	// The single worker must be free again.
	rec2, body2 := get(t, s.Handler(), "/search?q="+q)
	if rec2.Code != http.StatusOK {
		t.Fatalf("post-timeout request failed (%d): %s — worker wedged?", rec2.Code, body2)
	}
}

// TestBatchTimeoutReturns504 is TestTimeoutReturns504 for /batch: a
// free worker takes the batch without looking at its deadline, so only
// the batch's own context can turn it into a 504.
func TestBatchTimeoutReturns504(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, func(c *Config) { c.Workers = 1 })
	queries := testQueries(db, 2, 4)
	rec, body := post(t, s.Handler(), "/batch", map[string]any{"queries": queries, "timeout": "1ns"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("504 body not an error JSON: %s", body)
	}
	// The single worker must be free again.
	rec2, body2 := post(t, s.Handler(), "/batch", map[string]any{"queries": queries})
	if rec2.Code != http.StatusOK {
		t.Fatalf("post-timeout batch failed (%d): %s — worker wedged?", rec2.Code, body2)
	}
}

// TestQueueFullSheds429: with every worker busy and the queue full,
// new requests shed immediately with 429 and a Retry-After header.
func TestQueueFullSheds429(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, func(c *Config) { c.Workers = 1; c.QueueDepth = 0 })
	q := testQueries(db, 1, 5)[0]
	s.slots <- struct{}{} // occupy the only worker
	defer func() { <-s.slots }()
	rec, body := get(t, s.Handler(), "/search?q="+q+"&nocache=1")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestQueuedRequestHonoursDeadline: a request waiting for a worker
// still times out with 504 when its deadline passes in the queue.
func TestQueuedRequestHonoursDeadline(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, func(c *Config) { c.Workers = 1; c.QueueDepth = 4 })
	q := testQueries(db, 1, 6)[0]
	s.slots <- struct{}{} // occupy the only worker for the duration
	defer func() { <-s.slots }()
	start := time.Now()
	rec, body := get(t, s.Handler(), "/search?q="+q+"&timeout=50ms&nocache=1")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, body)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("queued request took %v to fail", waited)
	}
}

// TestBatchMatchesLibrary: /batch returns what SearchBatch returns.
func TestBatchMatchesLibrary(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, nil)
	queries := testQueries(db, 3, 8)
	want, err := db.SearchBatch(queries, nucleodb.DefaultSearchOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rec, body := post(t, s.Handler(), "/batch", map[string]any{"queries": queries})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("%d lists, want %d", len(resp.Results), len(want))
	}
	for i, hits := range resp.Results {
		if len(hits) != len(want[i]) {
			t.Fatalf("query %d: %d hits via HTTP, %d via library", i, len(hits), len(want[i]))
		}
		for k, h := range hits {
			if h.ID != want[i][k].ID || h.Score != want[i][k].Score {
				t.Fatalf("query %d hit %d: got %+v want %+v", i, k, h, want[i][k])
			}
		}
	}
}

// TestNewRejectsBadDefaultOptions: search defaults the engine would
// refuse fail New with the engine's message, instead of starting a
// server that answers every request 400.
func TestNewRejectsBadDefaultOptions(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		name   string
		mutate func(*nucleodb.SearchOptions)
		want   string
	}{
		{"zero candidates", func(o *nucleodb.SearchOptions) { o.Candidates = 0 }, "candidate budget 0 must be positive"},
		{"negative limit", func(o *nucleodb.SearchOptions) { o.Limit = -1 }, "negative MinScore or Limit"},
		{"unknown coarse mode", func(o *nucleodb.SearchOptions) { o.CoarseMode = nucleodb.CoarseDiagonal + 1 }, "unknown coarse mode"},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg.Options)
		s, err := New(db, cfg)
		if err == nil || s != nil {
			t.Errorf("%s: New accepted the configuration", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not carry the engine's %q", c.name, err, c.want)
		}
	}
}

// TestBadRequests: malformed inputs answer 4xx with an error body, not
// 5xx and not a hang.
func TestBadRequests(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, func(c *Config) { c.MaxQueryBases = 500; c.MaxBatchQueries = 4 })
	long := strings.Repeat("ACGT", 200)
	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
	}{
		{"missing query", func() *httptest.ResponseRecorder { r, _ := get(t, s.Handler(), "/search"); return r }, 400},
		{"bad letters", func() *httptest.ResponseRecorder { r, _ := get(t, s.Handler(), "/search?q=ACGT!!"); return r }, 400},
		{"bad timeout", func() *httptest.ResponseRecorder {
			r, _ := get(t, s.Handler(), "/search?q=ACGTACGTACGTACGT&timeout=banana")
			return r
		}, 400},
		{"negative timeout", func() *httptest.ResponseRecorder {
			r, _ := get(t, s.Handler(), "/search?q=ACGTACGTACGTACGT&timeout=-1s")
			return r
		}, 400},
		{"bad option", func() *httptest.ResponseRecorder {
			r, _ := get(t, s.Handler(), "/search?q=ACGTACGTACGTACGT&limit=banana")
			return r
		}, 400},
		{"oversized query", func() *httptest.ResponseRecorder { r, _ := get(t, s.Handler(), "/search?q="+long); return r }, 413},
		{"unknown coarse mode in JSON", func() *httptest.ResponseRecorder {
			r, _ := post(t, s.Handler(), "/search", map[string]any{"query": "ACGTACGTACGTACGT", "coarse_mode": "cosine"})
			return r
		}, 400},
		{"unknown JSON field", func() *httptest.ResponseRecorder {
			r, _ := post(t, s.Handler(), "/search", map[string]any{"query": "ACGTACGTACGTACGT", "bogus": 1})
			return r
		}, 400},
		{"batch without queries", func() *httptest.ResponseRecorder {
			r, _ := post(t, s.Handler(), "/batch", map[string]any{})
			return r
		}, 400},
		{"oversized batch", func() *httptest.ResponseRecorder {
			r, _ := post(t, s.Handler(), "/batch", map[string]any{"queries": []string{"A", "A", "A", "A", "A"}})
			return r
		}, 413},
		{"batch via GET", func() *httptest.ResponseRecorder { r, _ := get(t, s.Handler(), "/batch"); return r }, 405},
		// Bodies past MaxQueryBases (× MaxBatchQueries) + bodySlack are
		// refused on size, before they are parsed.
		{"oversized search body", func() *httptest.ResponseRecorder {
			r, _ := post(t, s.Handler(), "/search", map[string]any{"query": strings.Repeat("ACGT", 1500)})
			return r
		}, 413},
		{"oversized batch body", func() *httptest.ResponseRecorder {
			q := strings.Repeat("ACGT", 500)
			r, _ := post(t, s.Handler(), "/batch", map[string]any{"queries": []string{q, q, q, q}})
			return r
		}, 413},
	}
	for _, tc := range cases {
		rec := tc.do()
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: body is not an error JSON: %s", tc.name, rec.Body.String())
		}
	}
}

// TestUnknownParameterRejected: a name /search does not read is a 400
// on both methods — a misspelt GET parameter must not run the query on
// the default it meant to override, as a misspelt POST field does not —
// and every name it does read still gets through.
func TestUnknownParameterRejected(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, nil)
	const q = "ACGTACGTACGTACGT"
	for _, tc := range []struct{ query, want string }{
		{"candidtes=5", `unknown parameter "candidtes"`},
		{"fine_kernel=scalar", `unknown parameter "fine_kernel"`},
		{"zz=1&limit=3&aa=2", `unknown parameter "aa"`},
	} {
		rec, body := get(t, s.Handler(), "/search?q="+q+"&"+tc.query)
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || rec.Code != 400 || er.Error != tc.want {
			t.Errorf("GET %s: status %d, body %s; want 400 %s", tc.query, rec.Code, body, tc.want)
		}
	}
	for _, tc := range []struct {
		path  string
		field string
		body  map[string]any
	}{
		{"/search", "candidtes", map[string]any{"query": q, "candidtes": 5}},
		{"/search", "fine_kernel", map[string]any{"query": q, "fine_kernel": 5}},
		// /batch takes neither of the /search names it would ignore.
		{"/batch", "query", map[string]any{"queries": []string{q}, "query": "ACGT"}},
		{"/batch", "nocache", map[string]any{"queries": []string{q}, "nocache": true}},
	} {
		rec, body := post(t, s.Handler(), tc.path, tc.body)
		if rec.Code != 400 || !strings.Contains(string(body), `unknown field \"`+tc.field+`\"`) {
			t.Errorf("POST %s %s: status %d, body %s; want 400 naming the field", tc.path, tc.field, rec.Code, body)
		}
	}
	if rec, body := get(t, s.Handler(), "/search?"+allParams); rec.Code != 200 {
		t.Errorf("every known parameter at once: status %d: %s", rec.Code, body)
	}
}

// allParams names every GET parameter /search reads.
const allParams = "query=ACGTACGTACGTACGT&q=ACGTACGTACGTACGT&limit=3&candidates=50&minscore=1&prescreen=0&band=16" +
	"&strands=1&exact=1&coarse_mode=total&timeout=5s&stats=1&nocache=1"

// FuzzSearchParams feeds raw GET query strings to decodeQuery. It must
// never panic, and a request it accepts, sent as a JSON body instead,
// must decode to the same request: the GET names and the POST fields are
// one list.
func FuzzSearchParams(f *testing.F) {
	f.Add(allParams)
	script, err := os.ReadFile("../../clitest/servertest/testdata/script.json")
	if err != nil {
		f.Fatal(err)
	}
	var steps []struct{ Method, Path string }
	if err := json.Unmarshal(script, &steps); err != nil {
		f.Fatal(err)
	}
	for _, st := range steps {
		if st.Method == "" || st.Method == http.MethodGet {
			_, raw, _ := strings.Cut(st.Path, "?")
			f.Add(raw)
		}
	}
	defaults := nucleodb.DefaultSearchOptions()
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as r.URL.Query does, keep what parses
		got := searchRequest{SearchOptions: defaults}
		if decodeQuery(q, &got) != nil {
			return
		}
		if !utf8.ValidString(got.Query) || !utf8.ValidString(got.Timeout) {
			return // a JSON string holds only UTF-8: this request has no POST form
		}
		body, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("accepted request %+v does not marshal: %v", got, err)
		}
		back := searchRequest{SearchOptions: defaults}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil || back != got {
			t.Fatalf("GET %q decoded to %+v; as POST %s to %+v (%v)", raw, got, body, back, err)
		}
	})
}

// TestHealthzAndMetrics: the operational endpoints answer with
// well-formed JSON.
// endlessBody is a JSON request body that never ends: an opening
// {"query":" followed by bases for as long as anyone reads.
type endlessBody struct {
	opened bool
	read   int
}

func (b *endlessBody) Read(p []byte) (int, error) {
	n := 0
	if !b.opened {
		n = copy(p, `{"query":"`)
		b.opened = true
	}
	for i := n; i < len(p); i++ {
		p[i] = 'A'
	}
	b.read += len(p)
	return len(p), nil
}

// TestBodyLimitStopsReading: a body without end is answered 413 after
// the server has read its limit (plus the decoder's read-ahead), on both
// POST endpoints — and a query of exactly MaxQueryBases still fits.
func TestBodyLimitStopsReading(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, func(c *Config) { c.MaxQueryBases = 500; c.MaxBatchQueries = 4 })
	for path, limit := range map[string]int{"/search": 500 + bodySlack, "/batch": 4*503 + bodySlack} {
		body := &endlessBody{}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", path, rec.Code, rec.Body.String())
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, fmt.Sprint(limit)) {
			t.Errorf("%s: error body %q does not name the %d-byte limit", path, rec.Body.String(), limit)
		}
		if body.read > limit+4096 {
			t.Errorf("%s: server read %d bytes of an endless body, limit %d", path, body.read, limit)
		}
	}
	atLimit := strings.Repeat("A", 500)
	if rec, _ := post(t, s.Handler(), "/search", map[string]any{"query": atLimit}); rec.Code != http.StatusOK {
		t.Errorf("query of exactly MaxQueryBases: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec, _ := post(t, s.Handler(), "/batch", map[string]any{"queries": []string{atLimit, atLimit, atLimit, atLimit}}); rec.Code != http.StatusOK {
		t.Errorf("full batch of MaxQueryBases queries: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, nil)
	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var h healthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sequences != db.NumSequences() || h.Bases != db.TotalBases() {
		t.Fatalf("healthz = %+v", h)
	}
	get(t, s.Handler(), "/search?q="+testQueries(db, 1, 9)[0])
	rec, body = get(t, s.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"server_requests_total", "searches_total"} {
		if snap.Counters[key] <= 0 {
			t.Fatalf("counter %s = %d, want > 0", key, snap.Counters[key])
		}
	}
	if _, ok := snap.Histograms["server_request_latency"]; !ok {
		t.Fatal("metrics missing server_request_latency histogram")
	}
}

// TestHammerDuringShutdown fires overlapping /search and /batch
// requests at a live listener while the server drains: every response
// must be a well-formed success or shed/timeout, never a torn body or
// a wedged worker, and Shutdown must complete. Run under -race this is
// the service's concurrency gate.
func TestHammerDuringShutdown(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db, func(c *Config) { c.Workers = 4; c.QueueDepth = 4; c.CacheSize = 64 })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	queries := testQueries(db, 8, 10)

	const clients = 8
	const perClient = 12
	var wg sync.WaitGroup
	errc := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < perClient; i++ {
				var resp *http.Response
				var err error
				if rng.Intn(3) == 0 {
					buf, _ := json.Marshal(map[string]any{"queries": queries[:2]})
					resp, err = client.Post(base+"/batch", "application/json", bytes.NewReader(buf))
				} else {
					resp, err = client.Get(base + "/search?q=" + queries[rng.Intn(len(queries))])
				}
				if err != nil {
					// Connection refused/reset mid-drain is the expected
					// fate of requests that arrive after shutdown.
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					errc <- fmt.Errorf("torn body: %w", rerr)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
					if !json.Valid(body) {
						errc <- fmt.Errorf("status %d with invalid JSON: %q", resp.StatusCode, body)
					}
				default:
					errc <- fmt.Errorf("unexpected status %d: %s", resp.StatusCode, body)
				}
			}
		}(c)
	}

	// Let the hammer get going, then drain while requests are in
	// flight.
	time.Sleep(50 * time.Millisecond)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}
