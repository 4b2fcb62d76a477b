package gen

import (
	"fmt"
	"math/rand"
)

// Query is one workload query: a sequence plus bookkeeping about how it
// was derived, which evaluation uses to interpret results.
type Query struct {
	// Name labels the query in reports.
	Name string
	// Codes is the query sequence in code form.
	Codes []byte
	// SourceRecord is the collection record the query was derived from,
	// or -1 for a random (negative-control) query.
	SourceRecord int
	// Family is the family id of the source record, or -1.
	Family int
	// Divergence is the mutation divergence applied on top of the
	// source, 0 for exact fragments.
	Divergence float64
}

// WorkloadConfig controls query synthesis.
type WorkloadConfig struct {
	Seed int64
	// NumHomologous queries are mutated fragments of family members —
	// these have genuine similar sequences in the collection.
	NumHomologous int
	// NumRandom queries are fresh random sequences — negative controls
	// that should rank nothing highly.
	NumRandom int
	// QueryLength is the fragment length drawn from source records.
	QueryLength int
	// Divergence is the mutation rate applied to homologous queries.
	Divergence float64
}

// MakeWorkload derives a query set from a collection. Homologous
// queries are drawn from records that belong to families so every such
// query has at least one true homolog besides its own source.
func MakeWorkload(col *Collection, cfg WorkloadConfig) ([]Query, error) {
	if cfg.NumHomologous < 0 || cfg.NumRandom < 0 || cfg.QueryLength <= 0 {
		return nil, fmt.Errorf("gen: invalid workload config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var familyMembers []int
	for i, f := range col.FamilyOf {
		if f >= 0 {
			familyMembers = append(familyMembers, i)
		}
	}
	if cfg.NumHomologous > 0 && len(familyMembers) == 0 {
		return nil, fmt.Errorf("gen: workload wants homologous queries but collection has no families")
	}

	queries := make([]Query, 0, cfg.NumHomologous+cfg.NumRandom)
	model := MutationModel{
		SubstitutionRate: cfg.Divergence * 0.8,
		InsertionRate:    cfg.Divergence * 0.1,
		DeletionRate:     cfg.Divergence * 0.1,
	}
	for i := 0; i < cfg.NumHomologous; i++ {
		src := familyMembers[rng.Intn(len(familyMembers))]
		frag := Fragment(rng, col.Records[src].Codes, cfg.QueryLength)
		q := frag
		if cfg.Divergence > 0 {
			q = Mutate(rng, frag, model)
		}
		queries = append(queries, Query{
			Name:         fmt.Sprintf("hom%03d(src=%d)", i, src),
			Codes:        q,
			SourceRecord: src,
			Family:       col.FamilyOf[src],
			Divergence:   cfg.Divergence,
		})
	}
	for i := 0; i < cfg.NumRandom; i++ {
		queries = append(queries, Query{
			Name:         fmt.Sprintf("rnd%03d", i),
			Codes:        RandomSequence(rng, cfg.QueryLength, [4]float64{0.25, 0.25, 0.25, 0.25}, 0),
			SourceRecord: -1,
			Family:       -1,
		})
	}
	return queries, nil
}

// FamilyRecords returns the record ids in the given family, which
// evaluation treats as the relevant set for queries from that family.
func (c *Collection) FamilyRecords(family int) []int {
	if family < 0 {
		return nil
	}
	var ids []int
	for i, f := range c.FamilyOf {
		if f == family {
			ids = append(ids, i)
		}
	}
	return ids
}
