package align

// The batched banded score pass: up to eight candidates at once, one per
// byte lane of a uint64 — the inter-sequence layout of SWIPE (Rognes,
// BMC Bioinformatics 2011) applied to the band. Every lane runs
// scoreRow's recurrence unchanged, on the SWAR primitives of the striped
// kernel (laneSubSat, laneMax), so one word operation advances the same
// band cell of eight candidates.
//
// Layout. Lane k's band starts at its own origin lo_k = centre_k − band,
// so band column c of row i is subject position lo_k + i + c, and its
// window position is i + c in every lane: the lanes share row and column
// indices and differ only in the subject bytes under them. One profile
// entry per (query code, window position) holds the eight lanes' scores
// for that code against their window byte, as a word of Match where it
// matches and a word of Mismatch where it does not; a window position
// outside a lane's subject scores 0 in that lane. The band row is one
// pair of words per column — H, and the E of the next row — updated in
// place as scoreRow's rows are.
//
// Padding. A cell left of a lane's subject (j < 0) has only padding and
// the zero boundary behind it, so it stays 0 — the boundary the scalar
// kernel reads there. A cell right of the subject (j ≥ len(b)) is fed
// by real cells, but no real cell reads it, and it is never above the
// lane's best so far: its diagonal adds 0 and its gaps subtract a
// penalty. Real cells of a row precede its right padding, so the first
// cell of a new best is a real one, and each lane's answer is exactly
// BandedLocalScore's.
//
// Capacity. A byte lane holds the next row exactly while the lane's best
// is at most 127 − Match − Mismatch (the headroom the striped kernel's
// byte lanes use): a cell is at most its diagonal plus Match, and the
// row's E and F stay below its H. After the first row whose best passes
// that, the lane hands its band rows — exact, every value ≤ 127 — to
// scoreRows, which finishes the candidate in int32 from the next row;
// the lane is then cleared to zeros, so it cannot carry into its
// neighbours, and nothing is recomputed. A weak candidate stays in the
// byte lanes to the end; a homolog leaves after some 25 matched bases
// and costs what the scalar kernel costs.

import (
	"encoding/binary"

	"nucleodb/internal/dna"
)

// BatchLanes is the most candidates one BatchBandedScore batch holds:
// one per byte of a uint64.
const BatchLanes = 8

// minBatchLanes is the smallest batch the byte lanes pay for. A batch
// row costs the same however many lanes are live, so below this many
// candidates the scalar kernel, one candidate at a time, is cheaper
// (BenchmarkBatchBreakEven, EXPERIMENTS E24).
const minBatchLanes = 4

// BatchLane is one candidate of a batched banded score pass: the subject
// and band centre BandedLocalScore takes, and, after the call, its
// answer. B may be a window of the subject holding every band cell, with
// Centre shifted by the window's start; BEnd is then window-relative.
type BatchLane struct {
	B                 []byte
	Centre            int
	Score, AEnd, BEnd int
}

// BatchScratch is the mutable state of the batched score pass: the
// lanes' profile and H/E rows, and the scalar rows of the lanes it hands
// off and the batches it runs one lane at a time. One scratch belongs to
// one goroutine at a time; the fine phase pools one per worker.
type BatchScratch struct {
	prof   []laneScore // profile, rebuilt per batch
	cells  []laneCell  // H/E row, zeroed per batch
	banded BandedScratch
	// handedAt[k] is the row after which lane k of the last batch left the
	// byte lanes, or −1 if it did not. The pass reads it to count
	// byteRows, and the tests to check each lane's hand-off row.
	handedAt [BatchLanes]int
	// forceAt, when positive, hands every lane still in the byte lanes off
	// after row forceAt−1. Only the tests set it.
	forceAt int
	// laneRows counts, over every call so far, the rows that held band
	// cells of some lane, and byteRows those of them run in byte lanes
	// (the rest ran in the scalar kernel: after a hand-off, or in a batch
	// too small for the lanes).
	laneRows, byteRows int
}

// Rows returns how many lane-rows — rows holding band cells of some
// lane — the scratch's calls have scored, and how many of them ran in
// byte lanes, and resets both counts. Measurements read it; the search
// does not.
func (sc *BatchScratch) Rows() (lane, inBytes int) {
	lane, inBytes = sc.laneRows, sc.byteRows
	sc.laneRows, sc.byteRows = 0, 0
	return lane, inBytes
}

// BatchBandedScore sets each lane's Score, AEnd and BEnd to
// BandedLocalScore(a, lane.B, lane.Centre, band)'s, eight lanes to a
// word; lanes holds at most BatchLanes of them. Batches smaller than
// minBatchLanes, and scorings that leave a byte lane no headroom or whose
// gap penalties do not fit one, run the scalar kernel lane by lane. It
// allocates nothing once sc has grown.
func (t *Subst) BatchBandedScore(a []byte, band int, lanes []BatchLane, sc *BatchScratch) {
	for k := range sc.handedAt {
		sc.handedAt[k] = -1
	}
	top := laneCap[uint8]() - t.scoring.Match - t.scoring.Mismatch
	if len(lanes) < minBatchLanes || top <= 0 || int(t.openExt) > laneCap[uint8]() || len(a) == 0 || band < 0 {
		for k := range lanes {
			l := &lanes[k]
			l.Score, l.AEnd, l.BEnd = t.BandedLocalScore(a, l.B, l.Centre, band, &sc.banded)
			if band >= 0 {
				f, e := bandRows(len(a), len(l.B), l.Centre-band, 2*band+1)
				sc.laneRows += max(e-f, 0)
			}
		}
		return
	}
	t.batch(a, band, top, lanes, sc)
}

// laneCell is one band column's H word and the E word of the cell
// below it (column c−1 of the next row).
type laneCell struct{ h, e uint64 }

// laneScore is one profile entry: eight lanes' substitution scores as a
// word added to the diagonal (bytes 0–7: Match in the lanes that match)
// and a word subtracted from it, saturating at 0 (bytes 8–15: Mismatch
// in the lanes that do not). Kept apart they need no bias. Bytes, so the
// profile is built and cleared with one byte store per lane, and read as
// two little-endian words, which compile to two loads.
type laneScore [16]byte

// grow returns *buf resized to n entries and zeroed, growing it once to
// the high-water mark.
// The entries belong to the scratch and are reused by its next call.
func grow[T laneCell | laneScore](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n) // grows once to the widest batch
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// batch runs BatchBandedScore's lanes in byte lanes with headroom top.
func (t *Subst) batch(a []byte, band, top int, lanes []BatchLane, sc *BatchScratch) {
	width := 2*band + 1
	win := len(a) + width - 1 // window positions a band row reads

	// One profile row per query code the query holds.
	var rowOf [dna.NumCodes + 1]int
	var codes [dna.NumCodes + 1]byte
	rows := 0
	for _, x := range a {
		x = min(x, dna.NumCodes)
		if rowOf[x] == 0 {
			codes[rows] = x
			rows++
			rowOf[x] = rows
		}
	}
	prof := grow(&sc.prof, rows*win)
	var lo [BatchLanes]int
	first, end := len(a), 0
	var active uint // bit k: lane k has band cells and is in the byte lanes
	for k := range lanes {
		l := &lanes[k]
		l.Score, l.AEnd, l.BEnd = 0, 0, 0
		lo[k] = l.Centre - band
		f, e := bandRows(len(a), len(l.B), lo[k], width)
		if f >= e {
			continue // the band misses the subject: score 0
		}
		first, end, active = min(first, f), max(end, e), active|1<<k
		from, to := max(-lo[k], 0), min(len(l.B)-lo[k], win)
		bs := l.B[lo[k]+from : lo[k]+to]
		for r := range rows {
			sub, row := t.row(codes[r]), prof[r*win+from:][:len(bs)]
			for p, cb := range bs {
				v := sub[cb]
				row[p][k], row[p][8+k] = uint8(max(v, 0)), uint8(max(-v, 0))
			}
		}
	}

	cells := grow(&sc.cells, width+1)
	openExt, ext := packLane[uint8](int(t.openExt)), packLane[uint8](int(t.ext))
	// thr holds each lane's best plus one: a row reaching it in some lane
	// sets a new best there. Handed-off lanes hold 1 over zeros.
	thr := packLane[uint8](1)
	for i := first; i < end && active != 0; i++ {
		r := rowOf[min(a[i], dna.NumCodes)] - 1
		up := batchRow(cells, prof[r*win+i:][:width], openExt, ext, thr)
		forced := sc.forceAt == i+1
		if up == 0 && !forced {
			continue
		}
		for k := range lanes {
			shift := 8 * uint(k)
			l := &lanes[k]
			force := forced && active>>k&1 != 0
			if up>>(shift+7)&1 != 0 {
				v, at := laneBest(cells[:width], shift)
				l.Score, l.AEnd, l.BEnd = v, i+1, lo[k]+i+at+1
				if v <= top && !force {
					thr = thr&^(0xFF<<shift) | uint64(v+1)<<shift
					continue
				}
			} else if !force {
				continue
			}
			// Hand the lane's band rows to the scalar kernel at row i+1.
			hs, es := sc.banded.rows(width)
			for c := range width {
				// Word c holds E of the next row's column c−1, which scoreRow
				// takes as max(e[c] − ext, H − open−ext, 0): so e[c] is that
				// E plus ext.
				hs[c+1], es[c] = int32(uint8(cells[c].h>>shift)), int32(uint8(cells[c].e>>shift))+t.ext
			}
			l.Score, l.AEnd, l.BEnd = t.scoreRows(t.rowRoute(&sc.banded), a, l.B, lo[k], hs, es, i+1, int32(l.Score), l.AEnd, l.BEnd)
			sc.handedAt[k] = i
			active &^= 1 << k
			// Clear the lane for the rows left: zero rows and zero scores.
			keep := ^(uint64(0xFF) << shift)
			for c := range width {
				cells[c].h &= keep
				cells[c].e &= keep
			}
			for r := range rows {
				row := prof[r*win+i+1 : (r+1)*win]
				for p := range row {
					row[p][k], row[p][8+k] = 0, 0
				}
			}
			thr = thr&keep | 1<<shift
		}
	}
	for k := range lanes {
		if f, e := bandRows(len(a), len(lanes[k].B), lo[k], width); f < e {
			sc.laneRows += e - f
			sc.byteRows += e - f
			if at := sc.handedAt[k]; at >= 0 {
				sc.byteRows -= e - max(at+1, f)
			}
		}
	}
}

// batchRow is one band row of the batched score pass: scoreRow's
// recurrence on eight byte lanes. It overwrites the band's H/E words
// (width+1 of them; the last, above the band's right edge, stays 0),
// which still hold the row above, and returns the top bit of every lane
// in which some H reached that lane of thr. prof is the row's profile,
// one entry per band column.
//
// Each cell stores the E of the cell below it, max(E − ext, H − open−ext)
// — band column c−1 of the next row — rather than its own: the gap out
// of H, H − open−ext, is then shared by that E and the next cell's F,
// and the next row reads its E ready-made. F runs on the chain, from
// the left cell's H; it is clamped at 0, like E, which leaves every H
// unchanged. The column left of the band is 0 rather than a sentinel,
// which gives the same F. Or-ing H + (hi − thr) over the row, whose
// lanes cannot carry, flags a new best in two operations a cell where a
// running maximum takes seven; the rows that set a new best are few.
func batchRow(band []laneCell, prof []laneScore, openExt, ext, thr uint64) (reached uint64) {
	band = band[:len(prof)+1]
	// H has every top bit clear, so (H | hi) − thr is H + (hi − thr),
	// with no carry between lanes.
	toTop := laneHi[uint8]() - thr
	var f uint64
	for c := range prof {
		add, sub := binary.LittleEndian.Uint64(prof[c][:8]), binary.LittleEndian.Uint64(prof[c][8:])
		eUp := band[c+1].e
		hv := laneMax[uint8](laneMax[uint8](laneSubSat[uint8](band[c].h, sub)+add, eUp), f)
		gap := laneSubSat[uint8](hv, openExt)
		band[c] = laneCell{hv, laneMax[uint8](laneSubSat[uint8](eUp, ext), gap)}
		f = laneMax[uint8](laneSubSat[uint8](f, ext), gap)
		reached |= hv + toTop
	}
	return reached & laneHi[uint8]()
}

// laneBest returns the best H of the lane at shift in a band row and
// the first column holding it.
func laneBest(cells []laneCell, shift uint) (best, at int) {
	for c, cell := range cells {
		if v := int(uint8(cell.h >> shift)); v > best {
			best, at = v, c
		}
	}
	return best, at
}
