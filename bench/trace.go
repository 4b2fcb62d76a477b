package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nucleodb"
	"nucleodb/internal/eval"
)

// span is one timed interval of one request. Parent is the id of the
// span that caused it, 0 for the request itself. Times are microseconds
// from the start of the traced replay.
//
// The load generator sees only its own clock and the durations the
// service reports (X-Cafe-Took-Us, the stats=true stage times), so the
// durations are measured but where a child lies inside its parent is
// reconstructed: server.handle is centred in the round trip, core.search
// in server.handle, and the stages follow one another from the start of
// core.search in the order the engine runs them. Spans recorded inside
// the program are a later change.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

type traceFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// traceReplay sends the first requests of the measured range again,
// one at a time from one client: once plainly and once traced (with
// stats=true where the workload allows it). It returns the spans of the
// traced pass and adds the layer times they give to layers.
func traceReplay(s *stream, url string, first int, sz sizing, layers map[string]float64) []span {
	spec := loadSpec{first: first, max: sz.traced, duration: sz.duration / 4, clients: 1}
	spec.nocache = s.w.stats // as the traced pass, every request is evaluated
	plain, _ := load(s, url, spec)
	spec.nocache, spec.stats = false, s.w.stats
	start := time.Now()
	replies, _ := load(s, url, spec)

	rtt := func(r reply) time.Duration { return r.done.Sub(r.sent) }
	base := quantile(sortedMs(plain, rtt), 0.5)
	layers["loadgen.trace_overhead_pct"] = 100 * ratio(quantile(sortedMs(replies, rtt), 0.5)-base, base)

	var (
		spans                 []span
		transport, serverSelf []float64
		sum                   nucleodb.SearchStats // over the replies that carry stats
		n                     float64              // how many do
	)
	add := func(parent, request int, name string, from, to float64) int {
		spans = append(spans, span{len(spans) + 1, parent, request, name, from, to})
		return len(spans)
	}
	for _, r := range replies {
		if !r.ok {
			continue
		}
		t0, t1 := us(r.sent.Sub(start)), us(r.done.Sub(start))
		took := us(r.took)
		// The header is truncated to whole microseconds and the two
		// clocks are read at different points, so clamp instead of
		// letting a child poke out of its parent.
		took = min(took, t1-t0)
		transport = append(transport, t1-t0-took)
		req := add(0, r.index, "request", t0, t1)
		h0 := t0 + (t1-t0-took)/2
		handle := add(req, r.index, "server.handle", h0, h0+took)
		if r.stats == nil {
			if r.hit {
				serverSelf = append(serverSelf, took)
			}
			continue
		}
		st := r.stats
		total := min(us(st.TotalTime), took)
		serverSelf = append(serverSelf, took-total)
		c0 := h0 + (took-total)/2
		search := add(handle, r.index, "core.search", c0, c0+total)
		end := c0 + total
		coarseEnd := min(c0+us(st.CoarseTime), end)
		fineEnd := min(coarseEnd+us(st.FineTime), end)
		add(search, r.index, "core.coarse", c0, coarseEnd)
		fineSpan := add(search, r.index, "core.fine", coarseEnd, fineEnd)
		add(fineSpan, r.index, "core.prescreen", coarseEnd, min(coarseEnd+us(st.PrescreenTime), fineEnd))
		add(search, r.index, "core.traceback", fineEnd, min(fineEnd+us(st.TracebackTime), end))

		sum.Add(*st)
		n++
	}
	layers["http.transport_us"] = eval.Mean(transport)
	layers["server.self_us"] = eval.Mean(serverSelf)
	layers["core.coarse_us"] = ratio(us(sum.CoarseTime), n)
	layers["core.prescreen_us"] = ratio(us(sum.PrescreenTime), n)
	layers["core.fine_us"] = ratio(us(sum.FineTime), n)
	layers["core.traceback_us"] = ratio(us(sum.TracebackTime), n)
	layers["core.self_us"] = ratio(us(sum.TotalTime-sum.CoarseTime-sum.FineTime-sum.TracebackTime), n)
	layers["core.fine_cells_per_query"] = ratio(float64(sum.FineDPCells), n)
	layers["core.traceback_cells_per_query"] = ratio(float64(sum.TracebackDPCells), n)
	layers["core.candidates_per_query"] = ratio(float64(sum.CoarseCandidates), n)
	layers["core.results_per_candidate"] = ratio(float64(sum.Results), float64(sum.FineAlignments))
	return spans
}

func writeTrace(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the mean over requests of the
// span's duration minus the part its children cover — the "where the
// time goes" budget of a traced run.
func selfTimes(spans []span) map[string]float64 {
	covered := map[int]float64{}
	for _, sp := range spans {
		covered[sp.Parent] += sp.EndUs - sp.StartUs
	}
	sum := map[string]float64{}
	requests := 0
	for _, sp := range spans {
		sum[sp.Name] += sp.EndUs - sp.StartUs - covered[sp.ID]
		if sp.Parent == 0 {
			requests++
		}
	}
	for name := range sum {
		sum[name] /= float64(max(requests, 1))
	}
	return sum
}

// budgetNames lists span names for printing, largest self time first.
func budgetNames(self map[string]float64) []string {
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	return names
}
