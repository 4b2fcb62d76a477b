package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nucleodb"
	"nucleodb/internal/gen"
)

// The writer deletes deleteCount family members after every
// deleteEveryTicks-th batch it appends: about once a second at the full
// size's 300 ms between batches.
const (
	deleteEveryTicks = 3
	deleteCount      = 5
)

// ingest is the writer that runs beside the reads of ingest_mixed and
// what it saw.
type ingest struct {
	stop chan struct{}
	wg   sync.WaitGroup

	appends       []time.Duration
	appendedBases int
	// checked counts batches looked up after Append returned, missed
	// those whose first record a search of its own prefix did not find.
	checked, missed int
	// deletedAt is when Delete returned for each deleted id.
	deletedAt   map[int]time.Time
	compactions int
	err         error
}

// startIngest appends batch fresh records every interval, and deletes
// family members of the base collection, until halt is called.
func startIngest(db *nucleodb.Database, col *collection, w workload, seed int64, batch int, interval time.Duration) *ingest {
	in := &ingest{stop: make(chan struct{}), deletedAt: map[int]time.Time{}}
	rng := rand.New(rand.NewSource(seed))
	victims := rng.Perm(len(col.members))
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		segments := db.NumSegments()
		for n := 0; ; n++ {
			select {
			case <-in.stop:
				return
			case <-tick.C:
			}
			fresh, err := gen.Generate(gen.DefaultConfig(batch, seed<<20+int64(n)))
			if err != nil {
				in.err = err
				return
			}
			first := db.NumSequences()
			start := time.Now()
			if err := db.Append(toRecords(fresh.Records)); err != nil {
				in.err = fmt.Errorf("append %d: %w", n, err)
				return
			}
			in.appends = append(in.appends, time.Since(start))
			in.appendedBases += fresh.TotalBases()
			// Each append adds a segment, so a count that did not grow
			// means the compactor folded some in between.
			now := db.NumSegments()
			if now <= segments {
				in.compactions++
			}
			segments = now

			prefix := fresh.Records[0].Codes
			if len(prefix) > 150 {
				prefix = prefix[:150]
			}
			rs, err := db.SearchCodes(prefix, w.options())
			if err != nil {
				in.err = fmt.Errorf("search after append %d: %w", n, err)
				return
			}
			in.checked++
			if !containsID(rs, first) {
				in.missed++
			}

			if n%deleteEveryTicks == deleteEveryTicks-1 && len(victims) >= deleteCount {
				ids := make([]int, deleteCount)
				for i, v := range victims[:deleteCount] {
					ids[i] = col.members[v]
				}
				victims = victims[deleteCount:]
				if err := db.Delete(ids...); err != nil {
					in.err = fmt.Errorf("delete: %w", err)
					return
				}
				returned := time.Now()
				for _, id := range ids {
					in.deletedAt[id] = returned
				}
			}
		}
	}()
	return in
}

// halt stops the writer and waits for it.
func (in *ingest) halt() {
	close(in.stop)
	in.wg.Wait()
}

func containsID(rs []nucleodb.Result, id int) bool {
	for _, r := range rs {
		if r.ID == id {
			return true
		}
	}
	return false
}

// staleReads counts replies that were sent after Delete had returned
// for an id they contain. A request already in flight when Delete
// returns may still answer from the snapshot it started on.
func (in *ingest) staleReads(replies []reply) int {
	n := 0
	for _, r := range replies {
		for _, h := range r.results {
			if t, ok := in.deletedAt[h.ID]; ok && r.sent.After(t) {
				n++
				break
			}
		}
	}
	return n
}
