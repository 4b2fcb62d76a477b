package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"nucleodb/internal/eval"
	"nucleodb/internal/metrics"
)

// sizing scales a run. The driver's runs use fullSize; the smoke test
// shrinks everything.
type sizing struct {
	seqs     int           // sequences in the generated collection
	setups   int           // set-ups in an untraced run; setup_s is their median
	clients  int           // connections of the load generator
	duration time.Duration // length of the measured run
	windows  int           // equal parts the measured run is cut into
	requests int           // cap on measured requests (0: none)
	warmup   int           // cap on warm-up requests (0: the workload's own)
	pool     int           // cap on the Zipf pool (0: the workload's own)
	traced   int           // requests in the sequential traced replay
	replay   int           // queries in the layer replay
	samples  int           // responses checked against a direct search
	batch    int           // records per Append on ingest_mixed
	interval time.Duration // time between Appends on ingest_mixed
}

func fullSize(seconds float64, clients int) sizing {
	return sizing{
		seqs: 17777, setups: 3, clients: clients,
		duration: time.Duration(seconds * float64(time.Second)),
		windows:  max(1, int(seconds)), // of a second each
		traced:   200, replay: 50, samples: 25,
		batch: 50, interval: 300 * time.Millisecond,
	}
}

func capped(n, limit int) int {
	if limit > 0 && n > limit {
		return limit
	}
	return n
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of one run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// windows are the parts of the measured run the timed metrics are
	// taken over.
	windows []window
	// budget is the mean self time per span name of a traced run, in
	// microseconds: where a request's time goes.
	budget map[string]float64
}

// counters are the cumulative process and service counts read before
// and after the measured run.
type counters struct {
	mem runtime.MemStats
	srv metrics.Snapshot
}

func readCounters(url string) (c counters, err error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&c.srv); err != nil {
		return c, fmt.Errorf("decoding /metrics: %w", err)
	}
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// cpuTime is the user and system time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what one of the equal parts of the measured run saw: the
// median and mean latency of its replies in milliseconds, replies a
// second, and the process's CPU milliseconds per reply.
type window struct {
	p50, mean, qps, cpu float64
}

func newWindow(replies []reply, wall, cpu time.Duration) (window, bool) {
	latency := sortedMs(replies, func(r reply) time.Duration { return r.done.Sub(r.sched) })
	if len(latency) == 0 {
		return window{}, false
	}
	n := float64(len(latency))
	return window{quantile(latency, 0.5), eval.Mean(latency), n / wall.Seconds(), ms(cpu) / n}, true
}

// quiet returns the value a fifth of the way from the best window to
// the worst: the 20th percentile of f over the windows when lower is
// better, the 80th when higher is. The processors of a shared host slow
// down whenever a neighbour is busy, for seconds at a time and by a
// third or more, and never speed up past their own pace, so the windows
// near the best are the run with the neighbours quiet, which is the only
// state two runs have in common. README.md has the spreads measured for
// other choices between the minimum and the mean.
func quiet(windows []window, f func(window) float64, higher bool) float64 {
	values := make([]float64, len(windows))
	for i, w := range windows {
		values[i] = f(w)
	}
	sort.Float64s(values)
	if higher {
		return quantile(values, 0.8)
	}
	return quantile(values, 0.2)
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks; 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedMs returns f over the ok replies, in milliseconds, ascending.
func sortedMs(replies []reply, f func(reply) time.Duration) []float64 {
	var out []float64
	for _, r := range replies {
		if r.ok {
			out = append(out, ms(f(r)))
		}
	}
	sort.Float64s(out)
	return out
}

// recall is the mean, over homologous queries whose answer was decoded,
// of the share of the source family found in the answer: |answer ∩
// family| ÷ min(limit, |family|). Ids deleted during the run leave the
// family. (eval.RecallAt divides by the family size alone, which caps a
// limit-1 workload at a fifth.)
func recall(replies []reply, col *collection, limit int, deleted map[int]time.Time) float64 {
	var shares []float64
	for _, r := range replies {
		if !r.ok || r.family < 0 || r.hit {
			continue
		}
		live := map[int]bool{}
		for _, id := range col.family[r.family] {
			if _, gone := deleted[id]; !gone {
				live[id] = true
			}
		}
		if len(live) == 0 {
			continue
		}
		found := 0
		for _, h := range r.results {
			if live[h.ID] {
				found++
			}
		}
		shares = append(shares, float64(found)/float64(min(limit, len(live))))
	}
	return eval.Mean(shares)
}

// checkAnswers re-sends n requests spread over [first, first+count)
// with the cache bypassed and compares ids, scores and spans with a
// direct search of the same database. It returns how many differed.
func checkAnswers(s *stream, sv *served, first, count, n int) (wrong int, err error) {
	cl := newClient(sv.url)
	defer cl.close()
	for k := 0; k < n; k++ {
		q := s.request(first + k*count/n)
		body := s.w.body(q)
		body.NoCache = true
		r := cl.search(body)
		want, err := sv.db.SearchCodes(q.codes, s.w.options())
		if err != nil {
			return wrong, err
		}
		same := r.ok && len(r.results) == len(want)
		for i := 0; same && i < len(want); i++ {
			h, d := r.results[i], want[i]
			same = h.ID == d.ID && h.Score == d.Score &&
				h.QueryStart == d.QueryStart && h.QueryEnd == d.QueryEnd &&
				h.SubjectStart == d.SubjectStart && h.SubjectEnd == d.SubjectEnd
		}
		if !same {
			wrong++
		}
	}
	return wrong, nil
}

// run executes one workload once and returns its result: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func run(w workload, seed int64, traced bool, sz sizing, workdir string) (res result, err error) {
	col, err := generate(sz.seqs, collectionSeed)
	if err != nil {
		return res, err
	}
	if traced {
		sz.setups = 1
	}
	var (
		sv     *served
		setups []float64
	)
	for i := 0; i < sz.setups; i++ {
		if sv != nil {
			if err := sv.close(); err != nil {
				return res, err
			}
		}
		dir := filepath.Join(workdir, fmt.Sprintf("db-%d-%d", os.Getpid(), i))
		if sv, err = serve(col.records, dir); err != nil {
			return res, err
		}
		setups = append(setups, sv.total.Seconds())
	}
	defer func() { err = errors.Join(err, sv.close()) }()
	records := col.records
	col.records = nil // the measured heap should hold the database, not its source text

	s := newStream(w, col, seed, capped(w.pool, sz.pool))
	warmup := capped(w.warmup, sz.warmup)
	load(s, sv.url, loadSpec{max: warmup, clients: sz.clients})

	before, err := readCounters(sv.url)
	if err != nil {
		return res, err
	}
	in := &ingest{}
	if w.ingest {
		in = startIngest(sv.db, col, w, seed, sz.batch, sz.interval)
	}
	var replies []reply
	for i := 0; i < sz.windows; i++ {
		cpu := cpuTime()
		rs, wall := load(s, sv.url, loadSpec{
			first: warmup + len(replies), max: (sz.requests + sz.windows - 1) / sz.windows,
			duration: sz.duration / time.Duration(sz.windows), clients: sz.clients, rate: w.rate,
		})
		cpu = cpuTime() - cpu
		replies = append(replies, rs...)
		if win, ok := newWindow(rs, wall, cpu); ok {
			res.windows = append(res.windows, win)
		}
	}
	if w.ingest {
		in.halt()
		if in.err != nil {
			return res, in.err
		}
	}
	after, err := readCounters(sv.url)
	if err != nil {
		return res, err
	}
	if len(res.windows) == 0 {
		return res, errors.New("the measured run got no reply")
	}

	wrong, err := checkAnswers(s, sv, warmup, len(replies), sz.samples)
	if err != nil {
		return res, err
	}
	latency := sortedMs(replies, func(r reply) time.Duration { return r.done.Sub(r.sched) })
	sent := float64(len(replies))
	res.Attempted = len(replies) + sz.samples + in.checked
	res.Failed = len(replies) - len(latency) + wrong + in.missed + in.staleReads(replies)
	res.Correct = res.Failed == 0
	res.Metrics = map[string]value{}

	if !traced {
		// Let a fold in flight finish, so the heap read is the
		// database's and not a merge's working memory.
		sv.db.StopCompactor()
		runtime.GC()
		var live runtime.MemStats
		runtime.ReadMemStats(&live)
		put(res.Metrics, endToEnd, map[string]float64{
			"setup_s":               eval.Median(setups),
			"latency_p50_ms":        quiet(res.windows, func(w window) float64 { return w.p50 }, false),
			"latency_mean_ms":       quiet(res.windows, func(w window) float64 { return w.mean }, false),
			"throughput_qps":        quiet(res.windows, func(w window) float64 { return w.qps }, true),
			"family_recall":         recall(replies, col, w.options().Limit, in.deletedAt),
			"stored_bytes_per_base": float64(sv.storedBytes) / float64(col.bases),
			"heap_live_mb":          float64(live.HeapAlloc) / (1 << 20),
			"alloc_kb_per_req":      float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / sent,
			"cpu_ms_per_req":        quiet(res.windows, func(w window) float64 { return w.cpu }, false),
		})
		return res, nil
	}

	lag := sortedMs(replies, func(r reply) time.Duration { return r.sent.Sub(r.sched) })
	appends := make([]float64, len(in.appends))
	var appendTotal time.Duration
	for i, d := range in.appends {
		appends[i] = ms(d)
		appendTotal += d
	}
	sort.Float64s(appends)
	delta := func(name string) float64 {
		return float64(after.srv.Counters[name] - before.srv.Counters[name])
	}
	hits := delta("server_cache_hits_total")
	layers := map[string]float64{
		"loadgen.sent":                sent,
		"loadgen.error_rate":          float64(res.Failed) / float64(res.Attempted),
		"loadgen.latency_p95_ms":      quantile(latency, 0.95),
		"loadgen.latency_p99_ms":      quantile(latency, 0.99),
		"loadgen.lag_p99_ms":          quantile(lag, 0.99),
		"server.cache_hit_rate":       ratio(hits, hits+delta("server_cache_misses_total")),
		"server.requests":             delta("server_requests_total"),
		"server.shed":                 delta("server_shed_total"),
		"server.timeouts":             delta("server_timeouts_total"),
		"segment.save_s":              sv.save.Seconds(),
		"segment.open_s":              sv.open.Seconds(),
		"segment.append_p50_ms":       quantile(appends, 0.50),
		"segment.append_p95_ms":       quantile(appends, 0.95),
		"segment.append_us_per_kbase": ratio(us(appendTotal), float64(in.appendedBases)/1000),
		"segment.segments_final":      float64(sv.db.NumSegments()),
		"segment.deleted_final":       float64(sv.db.NumDeleted()),
		"segment.compactions":         float64(in.compactions),
		"runtime.allocs_per_req":      float64(after.mem.Mallocs-before.mem.Mallocs) / sent,
		"runtime.gc_cycles":           float64(after.mem.NumGC - before.mem.NumGC),
		"runtime.gc_pause_ms_total":   float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
	}
	spans := traceReplay(s, sv.url, warmup, sz, layers)
	res.budget = selfTimes(spans)
	if err := writeTrace(filepath.Join(workdir, w.name+".trace.json"), w.name, spans); err != nil {
		return res, err
	}
	if err := layerReplay(s, sv, records, warmup, sz.replay, layers); err != nil {
		return res, err
	}
	if w.ingest {
		// Fold whatever the run left behind, with the background
		// compactor out of the way, to time one compaction.
		sv.db.StopCompactor()
		sv.db.SetMaxSegments(1)
		start := time.Now()
		if _, err := sv.db.Compact(); err != nil {
			return res, err
		}
		layers["segment.compact_ms"] = ms(time.Since(start))
	}
	put(res.Metrics, perLayer, layers)
	return res, nil
}

// put copies the declared metrics from values into out; one a workload
// does not exercise reads 0.
func put(out map[string]value, decl []metric, values map[string]float64) {
	for _, m := range decl {
		out[m.Name] = value{values[m.Name], m.Unit}
	}
}
