package nucleodb_test

import (
	"fmt"
	"log"

	"nucleodb"
)

// Example builds a small database and runs one search end to end.
func Example() {
	records := []nucleodb.Record{
		{Desc: "subject", Sequence: "ACGTTGCAGGCCTTAAGGCCAACGTTGCAGGCCTTAAGGCCA"},
		{Desc: "unrelated", Sequence: "TTTTAAAACCCCGGGGTTTTAAAACCCCGGGGTTTTAAAACC"},
	}
	cfg := nucleodb.DefaultBuildConfig()
	cfg.IntervalLength = 8
	db, err := nucleodb.Build(records, cfg)
	if err != nil {
		log.Fatal(err)
	}

	opts := nucleodb.DefaultSearchOptions()
	opts.MinCoarseHits = 1
	results, err := db.Search("ACGTTGCAGGCCTTAAGGCCA", opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%s score=%d\n", r.Desc, r.Score)
	}
	// Output:
	// subject score=105
}

// ExampleDatabase_Search shows option use: exact fine alignment with
// spans and identity.
func ExampleDatabase_Search() {
	db, err := nucleodb.Build([]nucleodb.Record{
		{Desc: "gene", Sequence: "AACCGGTTAACCGGTTAACCGGTTAACCGGTT"},
	}, nucleodb.BuildConfig{IntervalLength: 6, Scoring: nucleodb.DefaultScoring()})
	if err != nil {
		log.Fatal(err)
	}
	opts := nucleodb.DefaultSearchOptions()
	opts.Exact = true
	opts.MinCoarseHits = 1
	results, err := db.Search("AACCGGTTAACCGGTT", opts)
	if err != nil {
		log.Fatal(err)
	}
	r := results[0]
	fmt.Printf("%s: identity %.0f%%, query %d-%d\n", r.Desc, 100*r.Identity, r.QueryStart, r.QueryEnd)
	// Output:
	// gene: identity 100%, query 0-16
}

// ExampleDatabase_Alignment renders the alignment a search traced for
// its best answer.
func ExampleDatabase_Alignment() {
	db, err := nucleodb.Build([]nucleodb.Record{
		{Desc: "ref", Sequence: "GGGGACGTTGCAGGCCTTAAGGCCAGGGG"},
	}, nucleodb.BuildConfig{IntervalLength: 6, Scoring: nucleodb.DefaultScoring()})
	if err != nil {
		log.Fatal(err)
	}
	query := "ACGTTGCAGCCCTTAAGGCCA"
	opts := nucleodb.DefaultSearchOptions()
	opts.MinCoarseHits = 1
	results, err := db.Search(query, opts)
	if err != nil {
		log.Fatal(err)
	}
	r := results[0]
	fmt.Printf("%s: score %d, identity %.0f%%\n", r.Desc, r.Score, 100*r.Identity)
	text, err := db.Alignment(query, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(text)
	// Output:
	// ref: score 96, identity 95%
	// score 96, identity 95% (20/21), gaps 0
	// Query      1  ACGTTGCAGCCCTTAAGGCCA  21
	//               ||||||||| |||||||||||
	// Sbjct      5  ACGTTGCAGGCCTTAAGGCCA  25
}
