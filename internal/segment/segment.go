// Package segment implements the LSM-style segmented database layout:
// the collection is a sequence of immutable (store, index) segments
// covering contiguous global record ids, searched together and folded
// into larger segments by background compaction. A segment never
// changes after construction — deletion tombstones and compaction both
// produce new Segment values — so a Set (an ordered snapshot of
// segments) can be shared freely between searchers while writers
// publish replacement Sets with a single atomic pointer swap.
package segment

import (
	"fmt"
	"sort"

	"nucleodb/internal/core"
	"nucleodb/internal/db"
	"nucleodb/internal/index"
)

// Segment is one immutable slice of the collection: a compressed
// sequence store, the inverted index built over it, and the global id
// of its first record. Local ids 0..Len()-1 name records Base..Base+Len()-1.
//
// deleted is a bitmap of tombstoned local ids: their sequences and
// postings remain in place (the segment is immutable) but search skips
// them, and compaction rewrites them as empty stubs — descriptions
// survive, sequence bytes and postings are reclaimed, and ids stay
// dense and stable.
type Segment struct {
	Name  string // file stem inside a database directory; "" if unpersisted
	Store *db.Store
	Index *index.Index
	Base  int

	deleted    []uint64
	numDeleted int
	liveBases  int
}

// New returns a segment over store and idx with its first record at
// global id base. The store and index must describe the same sequences.
func New(name string, store *db.Store, idx *index.Index, base int) (*Segment, error) {
	if store.Len() != idx.NumSeqs() {
		return nil, fmt.Errorf("segment: store has %d sequences, index has %d", store.Len(), idx.NumSeqs())
	}
	if base < 0 {
		return nil, fmt.Errorf("segment: negative base %d", base)
	}
	return &Segment{Name: name, Store: store, Index: idx, Base: base, liveBases: store.TotalBases()}, nil
}

// Len returns the segment's record count (including tombstoned records,
// which keep their ids).
func (g *Segment) Len() int { return g.Store.Len() }

// NumDeleted returns the number of tombstoned records.
func (g *Segment) NumDeleted() int { return g.numDeleted }

// LiveBases returns the total bases of non-tombstoned records.
func (g *Segment) LiveBases() int { return g.liveBases }

// DeletedLocal reports whether local id i is tombstoned.
func (g *Segment) DeletedLocal(i int) bool {
	if g.numDeleted == 0 {
		return false
	}
	return g.deleted[i>>6]&(1<<(uint(i)&63)) != 0
}

// WithDeleted returns a copy of the segment with the given local ids
// tombstoned in addition to any existing tombstones; the store, index
// and existing bitmap words are shared, so the copy is cheap. Returns
// the receiver unchanged when every id is already tombstoned.
func (g *Segment) WithDeleted(locals []int) (*Segment, error) {
	fresh := make([]int, 0, len(locals))
	for _, i := range locals {
		if i < 0 || i >= g.Len() {
			return nil, fmt.Errorf("segment: local id %d out of range [0,%d)", i, g.Len())
		}
		if !g.DeletedLocal(i) {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) == 0 {
		return g, nil
	}
	out := *g
	out.deleted = make([]uint64, (g.Len()+63)/64)
	copy(out.deleted, g.deleted)
	for _, i := range fresh {
		if out.deleted[i>>6]&(1<<(uint(i)&63)) == 0 {
			out.deleted[i>>6] |= 1 << (uint(i) & 63)
			out.numDeleted++
			out.liveBases -= g.Store.SeqLen(i)
		}
	}
	return &out, nil
}

// Renamed returns a copy of the segment under a new file stem, sharing
// every other field.
func (g *Segment) Renamed(name string) *Segment {
	out := *g
	out.Name = name
	return &out
}

// DeletedList returns the sorted tombstoned local ids (for the
// manifest).
func (g *Segment) DeletedList() []int {
	if g.numDeleted == 0 {
		return nil
	}
	out := make([]int, 0, g.numDeleted)
	for i := 0; i < g.Len(); i++ {
		if g.DeletedLocal(i) {
			out = append(out, i)
		}
	}
	return out
}

// Set is an immutable ordered snapshot of segments covering contiguous
// global ids from 0. It implements core.Source over global ids, so one
// Set pointer is everything a searcher needs; writers publish a new Set
// and readers keep using the one they loaded. TestSnapshotIsolation, in
// the root package, checks that no write reaches a loaded Set.
type Set struct {
	segs       []*Segment
	bases      []int // bases[i] = segs[i].Base, for binary search
	total      int
	liveBases  int
	numDeleted int
	coreSegs   []core.Segment
}

// NewSet validates that segs cover contiguous global ids starting at 0
// with equal index build options, and returns the snapshot. The slice
// is copied.
func NewSet(segs []*Segment) (*Set, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("segment: a set needs at least one segment")
	}
	s := &Set{
		segs:     append([]*Segment(nil), segs...),
		bases:    make([]int, len(segs)),
		coreSegs: make([]core.Segment, len(segs)),
	}
	opts := segs[0].Index.Options()
	for i, g := range s.segs {
		if g.Base != s.total {
			return nil, fmt.Errorf("segment: segment %d starts at global id %d, want %d", i, g.Base, s.total)
		}
		if g.Index.Options() != opts {
			return nil, fmt.Errorf("segment: segment %d build options differ from segment 0", i)
		}
		s.bases[i] = g.Base
		s.total += g.Len()
		s.liveBases += g.LiveBases()
		s.numDeleted += g.NumDeleted()
		cs := core.Segment{Index: g.Index, Base: g.Base}
		if g.NumDeleted() > 0 {
			cs.Deleted = g.DeletedLocal
		}
		s.coreSegs[i] = cs
	}
	return s, nil
}

// Len returns the number of segments.
func (s *Set) Len() int { return len(s.segs) }

// NumSeqs returns the total record count (tombstoned records included —
// ids stay dense).
func (s *Set) NumSeqs() int { return s.total }

// TotalBases returns the total bases of non-tombstoned records: the
// search-space size significance statistics normalise by, identical
// before and after tombstones are compacted away.
func (s *Set) TotalBases() int { return s.liveBases }

// NumDeleted returns the number of tombstoned records across segments.
func (s *Set) NumDeleted() int { return s.numDeleted }

// Segments returns the snapshot's segments in order. The slice is the
// set's own — callers must treat it as read-only.
func (s *Set) Segments() []*Segment { return s.segs }

// Options returns the segments' shared index build options.
func (s *Set) Options() index.Options { return s.segs[0].Index.Options() }

// CoreSegments returns the snapshot as core search segments. The slice
// is cached and read-only.
func (s *Set) CoreSegments() []core.Segment { return s.coreSegs }

// Locate returns the position of the segment containing global id and
// the local id within it. Panics when id is out of range.
func (s *Set) Locate(id int) (int, int) {
	if id < 0 || id >= s.total {
		panic(fmt.Sprintf("segment: record id %d out of range [0,%d)", id, s.total))
	}
	i := sort.SearchInts(s.bases, id+1) - 1
	return i, id - s.bases[i]
}

// locate returns the segment containing global id and the local id
// within it.
func (s *Set) locate(id int) (*Segment, int) {
	i, local := s.Locate(id)
	return s.segs[i], local
}

// Sequence returns record id's sequence in code form (core.Source).
func (s *Set) Sequence(id int) []byte {
	g, local := s.locate(id)
	return g.Store.Sequence(local)
}

// AppendRange appends bases [from, to) of record id to dst
// (core.Source's range read).
func (s *Set) AppendRange(dst []byte, id, from, to int) []byte {
	g, local := s.locate(id)
	return g.Store.AppendRange(dst, local, from, to)
}

// Desc returns record id's description.
func (s *Set) Desc(id int) string {
	g, local := s.locate(id)
	return g.Store.Desc(local)
}

// SeqLen returns record id's length in bases without decoding.
func (s *Set) SeqLen(id int) int {
	g, local := s.locate(id)
	return g.Store.SeqLen(local)
}

// Deleted reports whether record id is tombstoned.
func (s *Set) Deleted(id int) bool {
	g, local := s.locate(id)
	return g.DeletedLocal(local)
}

// source adapts Set to core.Source: core's Len is the record count,
// while Set.Len is the segment count, so the adapter keeps both names
// honest.
type source struct{ *Set }

// Source returns the set as a core.Source over global record ids.
func (s *Set) Source() core.Source { return source{s} }

func (s source) Len() int { return s.NumSeqs() }
