package core

import "slices"

// candBetter reports whether a ranks strictly ahead of b in the coarse
// ordering: higher score first, ties broken by lower ID. IDs are
// unique, so this is a total order — the property that makes bounded
// top-k selection reproduce the full sort's prefix exactly.
func candBetter(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// sortCandidates orders cands best-first in place.
func sortCandidates(cands []Candidate) {
	slices.SortFunc(cands, func(a, b Candidate) int {
		switch {
		case candBetter(a, b):
			return -1
		case candBetter(b, a):
			return 1
		}
		return 0
	})
}

// topKHeap selects the k best candidates from a stream: a min-heap of
// the best k seen so far, rooted at the weakest kept, so each push is
// O(log k) and selecting the candidate budget from n touched sequences
// costs O(n·log k) instead of the full sort's O(n·log n). The heap
// backing comes from the searcher's pooled candidate buffer, so
// steady-state selection allocates nothing.
type topKHeap struct {
	k    int
	heap []Candidate // min-heap on rank: heap[0] is the weakest kept
}

// worse reports whether heap[i] ranks strictly below heap[j].
func (t *topKHeap) worse(i, j int) bool { return candBetter(t.heap[j], t.heap[i]) }

// push offers one candidate, evicting the current weakest when the
// heap is full and c outranks it.
func (t *topKHeap) push(c Candidate) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, c)
		t.up(len(t.heap) - 1)
		return
	}
	if candBetter(c, t.heap[0]) {
		t.heap[0] = c
		t.down(0)
	}
}

func (t *topKHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(i, p) {
			return
		}
		t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
		i = p
	}
}

func (t *topKHeap) down(i int) {
	n := len(t.heap)
	for {
		w := i
		if l := 2*i + 1; l < n && t.worse(l, w) {
			w = l
		}
		if r := 2*i + 2; r < n && t.worse(r, w) {
			w = r
		}
		if w == i {
			return
		}
		t.heap[i], t.heap[w] = t.heap[w], t.heap[i]
		i = w
	}
}

// sorted orders the kept candidates best-first in place and returns
// them. The heap is spent afterwards.
func (t *topKHeap) sorted() []Candidate {
	sortCandidates(t.heap)
	return t.heap
}
