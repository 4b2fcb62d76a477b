package segment

import (
	"fmt"

	"nucleodb/internal/db"
	"nucleodb/internal/index"
)

// DefaultMaxSegments is the default compaction trigger: compaction
// folds segments while a set holds more than this many.
const DefaultMaxSegments = 4

// maxRunLen caps how many segments one compaction folds at a time, so
// a single merge's transient memory stays bounded.
const maxRunLen = 8

// PickRun selects the adjacent run [lo, hi) of segments the size-tiered
// policy would fold next, or (-1, -1) when the set already satisfies
// the policy (at most maxSegments segments). The run starts at the
// adjacent pair with the smallest combined record count — merging the
// smallest neighbours first keeps total rewrite work O(n·log n) across
// the database's life, the classic size-tiered argument — and extends
// over neighbours of similar tier (no larger than twice the run's
// accumulated count), so a wave of small appends folds in one merge
// instead of repeatedly rewriting into a large segment.
func PickRun(segs []*Segment, maxSegments int) (int, int) {
	if maxSegments < 1 {
		maxSegments = 1
	}
	if len(segs) <= maxSegments {
		return -1, -1
	}
	lo := 0
	best := segs[0].Len() + segs[1].Len()
	for i := 1; i+1 < len(segs); i++ {
		if c := segs[i].Len() + segs[i+1].Len(); c < best {
			best, lo = c, i
		}
	}
	hi, run := lo+2, best
	for hi < len(segs) && hi-lo < maxRunLen && segs[hi].Len() <= 2*run {
		run += segs[hi].Len()
		hi++
	}
	for lo > 0 && hi-lo < maxRunLen && segs[lo-1].Len() <= 2*run {
		run += segs[lo-1].Len()
		lo--
	}
	return lo, hi
}

// MergeRun folds an adjacent run of segments into one new segment named
// name (pass "" for an unpersisted segment), reclaiming tombstones:
// deleted records become empty stubs — the description survives, the
// sequence bytes and postings are dropped — so global ids stay dense
// and stable while the dead data's cost disappears.
//
// The merged index is index.Build over the stubbed store with the run's
// options, so it is byte-identical to a fresh build of the run's records
// at any stop fraction, mask or tombstone state: stopping is decided
// again over the folded run. Without stopping (StopFraction 0, the
// default) search results over the merged segment are identical to the
// unmerged run's — the crash-safety suite reopens and re-checks this at
// every fault point.
//
// The inputs are immutable and only read, so MergeRun runs safely off
// the writer lock, concurrent with searches over the same segments.
func MergeRun(name string, run []*Segment) (*Segment, error) {
	if len(run) == 0 {
		return nil, fmt.Errorf("segment: empty merge run")
	}
	store := &db.Store{}
	for _, g := range run {
		for i := 0; i < g.Len(); i++ {
			if g.DeletedLocal(i) {
				store.Add(g.Store.Desc(i), nil)
			} else {
				store.Add(g.Store.Desc(i), g.Store.Sequence(i))
			}
		}
	}
	idx, err := index.Build(store, run[0].Index.Options())
	if err != nil {
		return nil, fmt.Errorf("segment: merge: %w", err)
	}
	return New(name, store, idx, run[0].Base)
}
