// Package server exposes a nucleodb database as an HTTP/JSON query
// service: the shape the partitioned-search engine takes in
// production, where one resident database serves many small concurrent
// queries (the workload SEQR and COBS frame indexed sequence search
// around). The server is deliberately boring operationally:
//
//   - GET/POST /search evaluates one query; POST /batch evaluates many;
//   - request parameters are one closed list on every method: the JSON
//     names of nucleodb.SearchOptions plus timeout and stats, with query
//     (or q on GET) and nocache on /search and queries on /batch; a GET
//     parameter is a JSON field by another encoding, and any other name
//     answers 400;
//   - a bounded worker pool caps concurrent searches, a bounded queue
//     absorbs bursts, and requests beyond both are shed with 429;
//   - every request runs under a context deadline (per-request
//     ?timeout=, capped by the server maximum) and a timed-out search
//     stops at the next posting-list or candidate boundary and returns
//     504 — a worker is never wedged on an abandoned query;
//   - a search that fails for what the request got wrong (options the
//     engine rejects, a query shorter than the index interval) answers
//     400; any other failure — a corrupt posting list, a failed disk
//     read — is the server's, answers 500 and counts in
//     server_errors_total;
//   - an LRU cache keyed on the canonical query and the resolved
//     SearchOptions struct serves repeated queries from memory, with
//     hit/miss counters in /metrics;
//   - /healthz answers liveness probes and /metrics and /debug/vars
//     export the process-wide metrics registry.
package server

import (
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"nucleodb"
	"nucleodb/internal/dna"
	"nucleodb/internal/metrics"
)

// Config controls service behaviour. The zero value is not valid; use
// DefaultConfig and adjust.
type Config struct {
	// DefaultTimeout bounds a request that names no timeout; MaxTimeout
	// caps whatever the client asks for. Zero DefaultTimeout means
	// requests default to MaxTimeout.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Workers is the number of searches evaluated concurrently;
	// QueueDepth is how many more may wait for a worker before new
	// requests are shed with 429.
	Workers    int
	QueueDepth int
	// CacheSize is the result cache capacity in entries; 0 disables
	// caching.
	CacheSize int
	// MaxQueryBases rejects longer queries with 413; MaxBatchQueries
	// bounds one /batch request.
	MaxQueryBases   int
	MaxBatchQueries int
	// BatchWorkers bounds the per-batch search parallelism (a batch
	// occupies one pool slot; this is its internal fan-out). 0 uses
	// GOMAXPROCS.
	BatchWorkers int
	// Options is the search configuration requests start from; request
	// parameters override individual fields. New rejects a set no search
	// would accept.
	Options nucleodb.SearchOptions
}

// DefaultConfig returns production-leaning defaults sized for one
// resident database on one machine.
func DefaultConfig() Config {
	return Config{
		DefaultTimeout:  2 * time.Second,
		MaxTimeout:      30 * time.Second,
		Workers:         runtime.GOMAXPROCS(0),
		QueueDepth:      64,
		CacheSize:       1024,
		MaxQueryBases:   1 << 20,
		MaxBatchQueries: 256,
		Options:         nucleodb.DefaultSearchOptions(),
	}
}

// database is what the server asks of a nucleodb.Database; tests
// substitute one that fails on demand.
type database interface {
	SearchCodesWithStatsContext(ctx context.Context, codes []byte, opts nucleodb.SearchOptions) ([]nucleodb.Result, nucleodb.SearchStats, error)
	SearchBatchWithStatsContext(ctx context.Context, queries []string, opts nucleodb.SearchOptions, workers int) ([][]nucleodb.Result, nucleodb.SearchStats, error)
	NumSequences() int
	TotalBases() int
}

// Server serves search traffic for one Database. Create with New;
// mount Handler on an http.Server. Graceful drain is the HTTP
// server's: http.Server.Shutdown stops new connections and in-flight
// handlers run to completion (each already bounded by its deadline).
type Server struct {
	db    database
	cfg   Config
	cache *resultCache
	mux   *http.ServeMux

	slots  chan struct{}
	queued atomic.Int64

	mRequests    *metrics.Counter
	mShed        *metrics.Counter
	mTimeouts    *metrics.Counter
	mErrors      *metrics.Counter
	mCacheHits   *metrics.Counter
	mCacheMisses *metrics.Counter
	hLatency     *metrics.Histogram
}

// New returns a Server over db. It registers its instruments in the
// process-wide metrics registry and publishes the registry through
// expvar, so /metrics and /debug/vars work out of the box.
func New(db *nucleodb.Database, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("server: Workers %d must be positive", cfg.Workers)
	}
	if cfg.QueueDepth < 0 || cfg.MaxQueryBases <= 0 || cfg.MaxBatchQueries <= 0 {
		return nil, fmt.Errorf("server: invalid config %+v", cfg)
	}
	// Checked here, once: left to the engine, a bad default would fail
	// every request with a 400 that blames the client.
	if err := cfg.Options.Validate(); err != nil {
		return nil, fmt.Errorf("server: default search options: %w", err)
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultConfig().MaxTimeout
	}
	if cfg.DefaultTimeout <= 0 || cfg.DefaultTimeout > cfg.MaxTimeout {
		cfg.DefaultTimeout = cfg.MaxTimeout
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	nucleodb.PublishMetrics()
	reg := metrics.Default()
	s := &Server{
		db:    db,
		cfg:   cfg,
		cache: newResultCache(cfg.CacheSize),
		slots: make(chan struct{}, cfg.Workers),

		mRequests:    reg.Counter("server_requests_total"),
		mShed:        reg.Counter("server_shed_total"),
		mTimeouts:    reg.Counter("server_timeouts_total"),
		mErrors:      reg.Counter("server_errors_total"),
		mCacheHits:   reg.Counter("server_cache_hits_total"),
		mCacheMisses: reg.Counter("server_cache_misses_total"),
		hLatency:     reg.Histogram("server_request_latency"),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/debug/vars", expvar.Handler())
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats reports this server's result-cache effectiveness.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// Hit is one search answer on the wire.
type Hit struct {
	ID           int     `json:"id"`
	Desc         string  `json:"desc"`
	Score        int     `json:"score"`
	Identity     float64 `json:"identity"`
	QueryStart   int     `json:"query_start"`
	QueryEnd     int     `json:"query_end"`
	SubjectStart int     `json:"subject_start"`
	SubjectEnd   int     `json:"subject_end"`
	Reverse      bool    `json:"reverse,omitempty"`
	Bits         float64 `json:"bits"`
	EValue       float64 `json:"evalue"`
}

func hitsFrom(rs []nucleodb.Result) []Hit {
	hits := make([]Hit, len(rs))
	for i, r := range rs {
		hits[i] = Hit{
			ID:           r.ID,
			Desc:         r.Desc,
			Score:        r.Score,
			Identity:     r.Identity,
			QueryStart:   r.QueryStart,
			QueryEnd:     r.QueryEnd,
			SubjectStart: r.SubjectStart,
			SubjectEnd:   r.SubjectEnd,
			Reverse:      r.Reverse,
			Bits:         r.Bits,
			EValue:       r.EValue,
		}
	}
	return hits
}

// SearchResponse is the /search body. Cache status and wall time ride
// in the X-Cafe-Cache and X-Cafe-Took-Us headers, not the body, so a
// cached response is byte-identical to the search that filled it.
type SearchResponse struct {
	Results []Hit                 `json:"results"`
	Stats   *nucleodb.SearchStats `json:"stats,omitempty"`
}

// BatchResponse is the /batch body; Stats aggregates the whole batch.
type BatchResponse struct {
	Results [][]Hit               `json:"results"`
	Stats   *nucleodb.SearchStats `json:"stats,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, code, body)
}

var newline = []byte{'\n'}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Write the trailing newline separately: body may be a cached slice
	// shared across requests, and append would race on its spare
	// capacity.
	w.Write(body)
	w.Write(newline)
}

// searchRequest is the parameter set of one /search evaluation. Its JSON
// names are the wire names on both methods: POST decodes a body onto a
// copy of the server's default options and GET sets the same fields from
// URL parameters (decodeQuery), so a name left out keeps its default.
type searchRequest struct {
	Query string `json:"query"`
	nucleodb.SearchOptions
	Timeout string `json:"timeout"`
	Stats   bool   `json:"stats"`
	NoCache bool   `json:"nocache"`
}

// bodySlack is the room a request body gets beyond its queries: the
// JSON punctuation and every other parameter.
const bodySlack = 4 << 10

// decodeBody decodes r's JSON body into v, reading at most limit bytes:
// a body is refused from its size alone, before the query-length checks
// that could otherwise only run once all of it had been parsed. An
// oversized body surfaces as *http.MaxBytesError (see failDecode).
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding JSON body: %w", err)
	}
	return nil
}

// failDecode answers a request whose parameters could not be read: 413
// when the body outgrew its limit, 400 otherwise.
func failDecode(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit)})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

// parseSearchRequest extracts a searchRequest from r over the server's
// default options: JSON body for POST, URL parameters for GET.
func (s *Server) parseSearchRequest(w http.ResponseWriter, r *http.Request) (searchRequest, error) {
	req := searchRequest{SearchOptions: s.cfg.Options}
	if r.Method == http.MethodPost {
		return req, decodeBody(w, r, int64(s.cfg.MaxQueryBases)+bodySlack, &req)
	}
	return req, decodeQuery(r.URL.Query(), &req)
}

// queryFields maps each JSON name of searchRequest to its field, so the
// GET parameters are the POST body's fields.
var queryFields = func() map[string][]int {
	fields := map[string][]int{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(searchRequest{})) {
		if name := f.Tag.Get("json"); name != "" && name != "-" {
			fields[name] = f.Index
		}
	}
	return fields
}()

// decodeQuery sets req's fields from GET parameters named by their JSON
// names, plus q, which wins over query. An empty value is unset and of a
// repeated name the first value counts. A name no field carries is
// refused before any value is parsed, as DisallowUnknownFields does for
// a POST body: a misspelt name must 400, never fall through to a
// default. Names are taken in byte order, so the reply does not depend
// on map iteration.
func decodeQuery(q url.Values, req *searchRequest) error {
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := queryFields[name]; !ok && name != "q" {
			return fmt.Errorf("unknown parameter %q", name)
		}
	}
	rv := reflect.ValueOf(req).Elem()
	for _, name := range names {
		if v, index := q.Get(name), queryFields[name]; v != "" && index != nil {
			if err := setParam(rv.FieldByIndex(index), name, v); err != nil {
				return err
			}
		}
	}
	if v := q.Get("q"); v != "" {
		req.Query = v
	}
	return nil
}

// setParam parses v into the field f of the parameter name.
func setParam(f reflect.Value, name, v string) error {
	if u, ok := f.Addr().Interface().(encoding.TextUnmarshaler); ok {
		if err := u.UnmarshalText([]byte(v)); err != nil {
			return fmt.Errorf("parameter %s: %w", name, err)
		}
		return nil
	}
	switch f.Kind() {
	case reflect.Int:
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("parameter %s=%q is not an integer", name, v)
		}
		f.SetInt(int64(n))
	case reflect.Bool:
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("parameter %s=%q is not a boolean", name, v)
		}
		f.SetBool(b)
	default:
		f.SetString(v)
	}
	return nil
}

// timeout resolves the request's deadline: the client's ask capped by
// MaxTimeout, or DefaultTimeout when unspecified.
func (s *Server) timeout(spec string) (time.Duration, error) {
	if spec == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil {
		return 0, fmt.Errorf("parameter timeout=%q: %v", spec, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("parameter timeout=%q must be positive", spec)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// errShed marks a request rejected because pool and queue are full.
var errShed = errors.New("server overloaded")

// acquire takes a worker slot, waiting in the bounded queue when all
// workers are busy. It fails fast with errShed when the queue is full
// and with ctx.Err() when the request deadline passes while queued.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return errShed
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.slots }

// failSearch maps a search error onto the wire: 504 for a deadline,
// nothing for a vanished client, 429 for a shed request, 400 for what
// the request itself got wrong (nucleodb.ErrInvalid: options, query) and
// 500 — counted in server_errors_total — for everything else: a corrupt
// posting list or a failed read is the server's fault, not the client's.
func (s *Server) failSearch(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.mTimeouts.Inc()
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "search timed out"})
	case errors.Is(err, context.Canceled):
		// The client went away; there is nobody to answer.
	case errors.Is(err, errShed):
		s.mShed.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "server overloaded, retry later"})
	case errors.Is(err, nucleodb.ErrInvalid):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	default:
		s.mErrors.Inc()
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET or POST"})
		return
	}
	s.mRequests.Inc()
	start := time.Now()
	req, err := s.parseSearchRequest(w, r)
	if err != nil {
		failDecode(w, err)
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing query (q= parameter or JSON body)"})
		return
	}
	if len(req.Query) > s.cfg.MaxQueryBases {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("query of %d bases exceeds the %d-base limit", len(req.Query), s.cfg.MaxQueryBases)})
		return
	}
	codes, err := dna.Encode([]byte(req.Query))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	timeout, err := s.timeout(req.Timeout)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// Stats requests measure an execution, so they bypass the cache in
	// both directions; everything else is served from and feeds it.
	useCache := !req.NoCache && !req.Stats
	var key cacheKey
	if useCache {
		key = newCacheKey(dna.String(codes), req.SearchOptions)
		if body, ok := s.cache.get(key); ok {
			s.mCacheHits.Inc()
			w.Header().Set("X-Cafe-Cache", "hit")
			w.Header().Set("X-Cafe-Took-Us", strconv.FormatInt(time.Since(start).Microseconds(), 10))
			writeBody(w, http.StatusOK, body) // writeBody only reads the shared cache entry; ResponseWriter.Write copies the bytes to the socket
			return
		}
		s.mCacheMisses.Inc()
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		s.failSearch(w, err)
		return
	}
	rs, st, err := s.db.SearchCodesWithStatsContext(ctx, codes, req.SearchOptions)
	s.release()
	if err != nil {
		s.failSearch(w, err)
		return
	}
	resp := SearchResponse{Results: hitsFrom(rs)}
	if req.Stats {
		resp.Stats = &st
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "encoding response"})
		return
	}
	if useCache {
		s.cache.put(key, body)
	}
	took := time.Since(start)
	s.hLatency.Observe(took)
	w.Header().Set("X-Cafe-Cache", "miss")
	w.Header().Set("X-Cafe-Took-Us", strconv.FormatInt(took.Microseconds(), 10))
	writeBody(w, http.StatusOK, body)
}

// batchRequest is the /batch body: the queries, the search options,
// the timeout and stats, and no name /batch would ignore.
type batchRequest struct {
	Queries []string `json:"queries"`
	nucleodb.SearchOptions
	Timeout string `json:"timeout"`
	Stats   bool   `json:"stats"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	s.mRequests.Inc()
	start := time.Now()
	req := batchRequest{SearchOptions: s.cfg.Options}
	// Each query costs its bases plus quotes and a comma.
	maxBody := int64(s.cfg.MaxBatchQueries)*(int64(s.cfg.MaxQueryBases)+3) + bodySlack
	if err := decodeBody(w, r, maxBody, &req); err != nil {
		failDecode(w, err)
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing queries"})
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("batch of %d queries exceeds the %d-query limit", len(req.Queries), s.cfg.MaxBatchQueries)})
		return
	}
	for i, q := range req.Queries {
		if len(q) > s.cfg.MaxQueryBases {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("query %d of %d bases exceeds the %d-base limit", i, len(q), s.cfg.MaxQueryBases)})
			return
		}
	}
	timeout, err := s.timeout(req.Timeout)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// A batch occupies one pool slot; its internal fan-out is bounded
	// separately so one big batch cannot monopolise every worker.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		s.failSearch(w, err)
		return
	}
	lists, st, err := s.db.SearchBatchWithStatsContext(ctx, req.Queries, req.SearchOptions, s.cfg.BatchWorkers)
	s.release()
	if err != nil {
		s.failSearch(w, err)
		return
	}
	resp := BatchResponse{Results: make([][]Hit, len(lists))}
	for i, rs := range lists {
		resp.Results[i] = hitsFrom(rs)
	}
	if req.Stats {
		resp.Stats = &st
	}
	took := time.Since(start)
	s.hLatency.Observe(took)
	w.Header().Set("X-Cafe-Took-Us", strconv.FormatInt(took.Microseconds(), 10))
	writeJSON(w, http.StatusOK, resp)
}

// healthzResponse is deliberately static for a given database so
// probes and golden tests see a stable body.
type healthzResponse struct {
	Status    string `json:"status"`
	Sequences int    `json:"sequences"`
	Bases     int    `json:"bases"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:    "ok",
		Sequences: s.db.NumSequences(),
		Bases:     s.db.TotalBases(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := nucleodb.WriteMetrics(w); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "encoding metrics"})
	}
}
