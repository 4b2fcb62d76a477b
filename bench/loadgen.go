package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nucleodb"
	"nucleodb/internal/server"
)

// reply is what the load generator keeps of one request.
type reply struct {
	index int
	// sched is when the request was due (open loop; equal to sent in a
	// closed loop), sent and done bracket the HTTP round trip.
	sched, sent, done time.Time
	// ok is a 200 whose body parsed; hit and took are the X-Cafe-Cache
	// and X-Cafe-Took-Us headers.
	ok   bool
	hit  bool
	took time.Duration
	// family is the query's source family (-1: random query) and
	// results the answer. A cache hit replays bytes that were decoded
	// when the miss produced them, so it carries no results.
	family  int
	results []server.Hit
	stats   *nucleodb.SearchStats
}

// client is one connection to the server.
type client struct {
	http *http.Client
	url  string
	buf  bytes.Buffer
}

func newClient(url string) *client {
	return &client{
		url:  url + "/search",
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// search posts one request. The reply's ok is false on a transport
// error, a status other than 200 or a body that does not parse.
func (c *client) search(body searchBody) (r reply) {
	payload, err := json.Marshal(body)
	if err != nil {
		return r
	}
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return r
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		return r
	}
	us, err := strconv.ParseInt(resp.Header.Get("X-Cafe-Took-Us"), 10, 64)
	if err != nil {
		return r
	}
	r.took = time.Duration(us) * time.Microsecond
	r.hit = resp.Header.Get("X-Cafe-Cache") == "hit"
	if r.hit {
		r.ok = true
		return r
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(c.buf.Bytes(), &sr); err != nil {
		return r
	}
	r.ok, r.results, r.stats = true, sr.Results, sr.Stats
	return r
}

// loadSpec says which requests of a stream to send and how.
type loadSpec struct {
	// Requests first, first+1, … are sent until max of them have been
	// (0: no cap) or duration has passed (0: no limit).
	first, max int
	duration   time.Duration
	clients    int
	// rate > 0 sends request i at i/rate seconds whatever came back
	// (open loop); otherwise each client sends back to back.
	rate float64
	// stats and nocache are set on every request body.
	stats, nocache bool
}

// openLoopConns is the number of connections an open loop sends on,
// whatever spec.clients says. They stand for independent users, so a
// slow reply must not hold back the schedule: at the 100 requests a
// second of ingest_mixed, eight cover replies of up to 80 ms. All but
// one or two are asleep at any moment, so they do not crowd the CPUs
// the way more closed-loop clients than processors would.
const openLoopConns = 8

// load runs the requests and returns the replies in request order and
// the wall time from the first send to the last reply.
func load(s *stream, url string, spec loadSpec) ([]reply, time.Duration) {
	conns := spec.clients
	if spec.rate > 0 {
		conns = openLoopConns
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		perConn = make([][]reply, conns)
		start   = time.Now()
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(url)
			defer cl.close()
			for {
				n := int(next.Add(1)) - 1
				if spec.max > 0 && n >= spec.max {
					return
				}
				sched := time.Now()
				if spec.rate > 0 {
					sched = start.Add(time.Duration(float64(n) / spec.rate * float64(time.Second)))
				}
				if spec.duration > 0 && sched.Sub(start) >= spec.duration {
					return
				}
				q := s.request(spec.first + n)
				body := s.w.body(q)
				body.Stats, body.NoCache = spec.stats, spec.nocache
				if spec.rate > 0 {
					time.Sleep(time.Until(sched))
				}
				sent := time.Now()
				if spec.rate <= 0 {
					sched = sent
				}
				r := cl.search(body)
				r.done = time.Now()
				r.index, r.sched, r.sent, r.family = spec.first+n, sched, sent, q.family
				perConn[c] = append(perConn[c], r)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []reply
	for _, rs := range perConn {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].index < all[j].index })
	return all, wall
}
