// Batch workload: a metagenomic-style screen. A pile of short reads —
// some drawn from organisms present in the database, some from
// organisms that are not — is classified by searching each read and
// thresholding the best alignment score. Demonstrates persistent
// databases (SaveSegmented/Open) and high-throughput batch searching on one
// shared Database.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"nucleodb"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
)

func main() {
	rng := rand.New(rand.NewSource(19))

	// The reference database: 1200 "known organisms".
	col, err := gen.Generate(gen.DefaultConfig(1200, 23))
	if err != nil {
		log.Fatal(err)
	}
	records := make([]nucleodb.Record, len(col.Records))
	for i, r := range col.Records {
		records[i] = nucleodb.Record{Desc: r.Desc, Sequence: dna.String(r.Codes)}
	}
	db, err := nucleodb.Build(records, nucleodb.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Persist and reopen, as a pipeline that builds once and screens
	// many runs would.
	dir := filepath.Join(os.TempDir(), "nucleodb-metagenome-example")
	defer os.RemoveAll(dir)
	if err := db.SaveSegmented(dir); err != nil {
		log.Fatal(err)
	}
	db, err = nucleodb.Open(dir, nucleodb.DefaultScoring())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference database: %d sequences, %.1f Mbases (reopened from %s)\n\n",
		db.NumSequences(), float64(db.TotalBases())/1e6, dir)

	// The read set: half from known organisms (with sequencing errors),
	// half from novel ones.
	const reads = 60
	const readLen = 150
	model := gen.MutationModel{SubstitutionRate: 0.02, InsertionRate: 0.002, DeletionRate: 0.002}
	type read struct {
		seq   []byte
		known bool
	}
	var batch []read
	for i := 0; i < reads/2; i++ {
		src := rng.Intn(len(col.Records))
		frag := gen.Fragment(rng, col.Records[src].Codes, readLen)
		batch = append(batch, read{gen.Mutate(rng, frag, model), true})
	}
	for i := 0; i < reads/2; i++ {
		batch = append(batch, read{gen.RandomSequence(rng, readLen, [4]float64{0.25, 0.25, 0.25, 0.25}, 0), false})
	}

	// Screen. A read "hits" when its best local alignment covers most
	// of the read: ≥ 60% of the perfect score.
	opts := nucleodb.DefaultSearchOptions()
	opts.Limit = 1
	opts.MinCoarseHits = 4
	threshold := readLen * nucleodb.DefaultScoring().Match * 60 / 100

	start := time.Now()
	tp, fp, tn, fn := 0, 0, 0, 0
	for _, rd := range batch {
		rs, err := db.Search(dna.String(rd.seq), opts)
		if err != nil {
			log.Fatal(err)
		}
		hit := len(rs) > 0 && rs[0].Score >= threshold
		switch {
		case hit && rd.known:
			tp++
		case hit && !rd.known:
			fp++
		case !hit && !rd.known:
			tn++
		default:
			fn++
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("screened %d reads of %d bases in %v (%.1f reads/s)\n",
		reads, readLen, elapsed.Round(time.Millisecond),
		float64(reads)/elapsed.Seconds())
	fmt.Printf("  known organisms found:     %d/%d\n", tp, tp+fn)
	fmt.Printf("  novel correctly rejected:  %d/%d\n", tn, tn+fp)
	if fp > 0 || fn > 2 {
		fmt.Println("  (screen thresholds may need tuning for your data)")
	}
}
