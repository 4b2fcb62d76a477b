package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nucleodb"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
)

// workload describes one traffic mix. The query and option choices are
// the issue's; README.md records why each exists.
type workload struct {
	name, why string
	// warmup is the number of requests sent, and discarded, before the
	// measured run: it fills the searcher pool, the significance
	// parameters and (repeat_zipf) the result cache.
	warmup int
	// rate, when positive, makes the run an open loop at this many
	// requests per second; otherwise clients send back to back.
	rate float64
	// pool, when positive, draws requests Zipf(s=1) from this many
	// distinct queries; otherwise every request is a new query.
	pool int
	// length returns the length of distinct query i.
	length func(i int) int
	// candidates, limit and exact override the server defaults when set.
	candidates, limit int
	exact             bool
	// stats says the traced replay may ask for stats=true. It bypasses
	// the result cache, so the workload that measures the cache reads
	// the response headers only.
	stats bool
	// ingest runs the writer beside the reads.
	ingest bool
	// byHand keeps the workload out of BENCHMARK.json: the driver's time
	// limit pays for steady runs of three workloads, not of five, so
	// these two run when someone asks for them by name (and in the smoke
	// test) and gate nothing.
	byHand bool
}

// lowDiscrepancy spreads i over [0,1) by the golden ratio, so any
// prefix of a run covers the range evenly whatever the seed: latency
// follows query length, and a length mix that differed from seed to
// seed would show as spread in every percentile.
func lowDiscrepancy(i int) float64 {
	_, f := math.Modf(float64(i+1) * 0.6180339887498949)
	return f
}

var workloads = []workload{
	{
		name: "served_default", stats: true, warmup: 40,
		why:    "default /search options on read- to gene-length queries: fine + traceback dominate, coarse work must not show",
		length: func(i int) int { return int(100 * math.Pow(20, lowDiscrepancy(i))) },
	},
	{
		name: "exact_traceback", stats: true, warmup: 20,
		why:        "exact=true on 150-base queries: the only path on the striped kernel and the full-matrix traceback recompute",
		length:     func(int) int { return 150 },
		candidates: 8, limit: 3, exact: true,
	},
	{
		name: "coarse_scan", stats: true, warmup: 100,
		why:        "1000-base queries, 3 candidates, best hit only: posting decode and accumulation are over half of service time",
		length:     func(int) int { return 1000 },
		candidates: 3, limit: 1,
	},
	{
		name: "repeat_zipf", warmup: 1500, pool: 4096, byHand: true,
		why:    "Zipf(1) repeats over 4096 queries against the 1024-entry result cache: P50 is the cache hit path, the tail is the miss path",
		length: func(int) int { return 400 },
	},
	{
		name: "ingest_mixed", stats: true, warmup: 40, rate: 100, ingest: true, byHand: true,
		why:        "open loop of short reads at 100/s beside Append, Delete and the background compactor on a directory-bound database",
		length:     func(i int) int { return 100 + int(51*lowDiscrepancy(i)) },
		candidates: 10, limit: 10,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options returns the search options the server resolves for the
// workload's requests, for the direct calls answers are checked against.
func (w workload) options() nucleodb.SearchOptions {
	o := nucleodb.DefaultSearchOptions()
	if w.candidates > 0 {
		o.Candidates = w.candidates
	}
	if w.limit > 0 {
		o.Limit = w.limit
	}
	o.Exact = w.exact
	return o
}

// searchBody is the /search request body the load generator sends.
type searchBody struct {
	Query      string `json:"query"`
	Limit      *int   `json:"limit,omitempty"`
	Candidates *int   `json:"candidates,omitempty"`
	Exact      *bool  `json:"exact,omitempty"`
	Stats      bool   `json:"stats,omitempty"`
	NoCache    bool   `json:"nocache,omitempty"`
}

func (w workload) body(q query) searchBody {
	b := searchBody{Query: q.letters}
	if w.candidates > 0 {
		b.Candidates = &w.candidates
	}
	if w.limit > 0 {
		b.Limit = &w.limit
	}
	if w.exact {
		b.Exact = &w.exact
	}
	return b
}

// collection is the generated database content plus what query
// synthesis and recall scoring need from it.
type collection struct {
	records []nucleodb.Record
	bases   int
	// members are the records that belong to a family: the sources of
	// homologous queries. family maps a family to its record ids.
	members []int
	codes   map[int][]byte
	family  map[int][]int
	of      []int
}

// collectionSeed generates the database content of every run. Only the
// queries (and the records ingest_mixed appends) follow --seed: the
// generator's sequence lengths are log-normal with a tail out to 20 000
// bases, the default coarse ranking puts the few longest sequences
// among every query's candidates, and how long those few are differs
// enough from one generated collection to the next to move every
// latency by ±20 % — more than any bound could allow for.
const collectionSeed = 1

func generate(seqs int, seed int64) (*collection, error) {
	col, err := gen.Generate(gen.DefaultConfig(seqs, seed))
	if err != nil {
		return nil, err
	}
	c := &collection{
		records: toRecords(col.Records),
		bases:   col.TotalBases(),
		codes:   map[int][]byte{},
		family:  map[int][]int{},
		of:      col.FamilyOf,
	}
	for id, f := range col.FamilyOf {
		if f >= 0 {
			c.members = append(c.members, id)
			c.codes[id] = col.Records[id].Codes
			c.family[f] = append(c.family[f], id)
		}
	}
	if len(c.members) == 0 {
		return nil, fmt.Errorf("collection of %d sequences has no families", seqs)
	}
	return c, nil
}

func toRecords(in []dna.Record) []nucleodb.Record {
	out := make([]nucleodb.Record, len(in))
	for i, r := range in {
		out[i] = nucleodb.Record{Desc: r.Desc, Sequence: dna.String(r.Codes)}
	}
	return out
}

// query is one generated search input.
type query struct {
	codes   []byte
	letters string
	// family is the source record's family, -1 for a random query.
	family int
}

// splitmix64 is the per-index hash that makes request i's inputs a
// function of (seed, i) alone, whichever client happens to send it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// queryDivergence is the mutation applied to homologous fragments.
const queryDivergence = 0.10

// distinct returns distinct query i of the workload: four in five are
// mutated fragments of a family member, every fifth is random.
func (c *collection) distinct(w workload, seed int64, i int) query {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed)<<32 ^ uint64(i)))))
	n := w.length(i)
	q := query{family: -1}
	if i%5 == 4 {
		q.codes = gen.RandomSequence(rng, n, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)
	} else {
		src := c.members[rng.Intn(len(c.members))]
		q.family = c.of[src]
		q.codes = gen.Mutate(rng, gen.Fragment(rng, c.codes[src], n), gen.MutationModel{
			SubstitutionRate: queryDivergence * 0.8,
			InsertionRate:    queryDivergence * 0.1,
			DeletionRate:     queryDivergence * 0.1,
		})
	}
	q.letters = dna.String(q.codes)
	return q
}

// stream maps request numbers to queries for one workload and seed.
type stream struct {
	w    workload
	col  *collection
	seed int64
	// pool and cdf are set for a Zipf workload: the distinct queries
	// and the cumulative weights Σ 1/rank.
	pool []query
	cdf  []float64
}

func newStream(w workload, col *collection, seed int64, pool int) *stream {
	s := &stream{w: w, col: col, seed: seed}
	if pool > 0 {
		s.pool = make([]query, pool)
		s.cdf = make([]float64, pool)
		sum := 0.0
		for i := range s.pool {
			s.pool[i] = col.distinct(w, seed, i)
			sum += 1 / float64(i+1)
			s.cdf[i] = sum
		}
	}
	return s
}

// request returns the query of request i.
func (s *stream) request(i int) query {
	if s.pool == nil {
		return s.col.distinct(s.w, s.seed, i)
	}
	// The complemented key keeps the draw independent of pool entry i,
	// which distinct derives from the same (seed, i).
	u := float64(splitmix64(^(uint64(s.seed)<<32^uint64(i)))>>11) / (1 << 53)
	return s.pool[sort.SearchFloat64s(s.cdf, u*s.cdf[len(s.cdf)-1])]
}
