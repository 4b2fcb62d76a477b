// Package db implements the sequence store: the record component of the
// database that holds every sequence and its description, compressed
// with direct coding so that any record can be decoded independently of
// the order in which records were stored — the property the fine search
// phase relies on when it retrieves only the candidate sequences.
package db

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nucleodb/internal/dna"
)

// Store is an append-only collection of sequence records. Records are
// identified by dense integer ids in insertion order. The zero value is
// an empty store ready to use.
type Store struct {
	descs   []string
	offsets []int // byte offset of each record's direct coding in blob
	lengths []int // sequence length in bases
	blob    []byte
	total   int // total bases
	coder   dna.DirectCoder
}

// Add appends a record and returns its id.
func (s *Store) Add(desc string, codes []byte) int {
	id := len(s.descs)
	s.descs = append(s.descs, desc)
	s.offsets = append(s.offsets, len(s.blob))
	s.lengths = append(s.lengths, len(codes))
	s.blob = s.coder.Encode(s.blob, codes)
	s.total += len(codes)
	return id
}

// Len returns the number of records.
func (s *Store) Len() int { return len(s.descs) }

// TotalBases returns the total number of bases stored.
func (s *Store) TotalBases() int { return s.total }

// EncodedBytes returns the size of the compressed sequence data,
// excluding the description table.
func (s *Store) EncodedBytes() int { return len(s.blob) }

// Desc returns the description of record id.
func (s *Store) Desc(id int) string {
	s.check(id)
	return s.descs[id]
}

// SeqLen returns the sequence length of record id without decoding it.
func (s *Store) SeqLen(id int) int {
	s.check(id)
	return s.lengths[id]
}

// Sequence decodes and returns the sequence of record id in code form.
func (s *Store) Sequence(id int) []byte {
	s.check(id)
	codes, _, err := s.coder.Decode(s.blob[s.offsets[id]:])
	if err != nil {
		// The blob is written by this package; a decode failure means
		// memory corruption, not bad input.
		panic(fmt.Sprintf("db: corrupt record %d: %v", id, err))
	}
	return codes
}

// AppendRange appends bases [from, to) of record id in code form to dst
// and returns the extended slice — Sequence(id)[from:to], decoded straight
// from the 2-bit store without materialising the rest of the record. The
// fine phase reads each candidate's band window through it into pooled
// scratch. It panics unless 0 ≤ from ≤ to ≤ SeqLen(id).
func (s *Store) AppendRange(dst []byte, id, from, to int) []byte {
	s.check(id)
	dst, err := s.coder.AppendRange(dst, s.blob[s.offsets[id]:], from, to)
	if err != nil {
		// Load validated every record, so only a range outside the record
		// or memory corruption gets here.
		panic(fmt.Sprintf("db: record %d range [%d,%d): %v", id, from, to, err))
	}
	return dst
}

func (s *Store) check(id int) {
	if id < 0 || id >= len(s.descs) {
		panic(fmt.Sprintf("db: record id %d out of range [0,%d)", id, len(s.descs)))
	}
}

// storeMagic identifies the on-disk store format, version 1.
const storeMagic = "NDBstor1"

// Save writes the store to w in its on-disk format.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(storeMagic); err != nil {
		return fmt.Errorf("db: save: %w", err)
	}
	var tmp [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	if err := writeUvarint(uint64(len(s.descs))); err != nil {
		return fmt.Errorf("db: save: %w", err)
	}
	for i, d := range s.descs {
		if err := writeUvarint(uint64(len(d))); err != nil {
			return fmt.Errorf("db: save: %w", err)
		}
		if _, err := bw.WriteString(d); err != nil {
			return fmt.Errorf("db: save: %w", err)
		}
		if err := writeUvarint(uint64(s.offsets[i])); err != nil {
			return fmt.Errorf("db: save: %w", err)
		}
		if err := writeUvarint(uint64(s.lengths[i])); err != nil {
			return fmt.Errorf("db: save: %w", err)
		}
	}
	if err := writeUvarint(uint64(len(s.blob))); err != nil {
		return fmt.Errorf("db: save: %w", err)
	}
	if _, err := bw.Write(s.blob); err != nil {
		return fmt.Errorf("db: save: %w", err)
	}
	return bw.Flush()
}

// Load reads a store previously written by Save.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("db: load: %w", err)
	}
	if string(magic) != storeMagic {
		return nil, fmt.Errorf("db: load: bad magic %q", magic)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("db: load: record count: %w", err)
	}
	const maxRecords = 1 << 40
	if n > maxRecords {
		return nil, fmt.Errorf("db: load: implausible record count %d", n)
	}
	// Counts from the header size allocations, so capacity hints are
	// capped and growth is incremental: a lying count fails with a read
	// error after a bounded allocation, never an OOM.
	const capHint = 1 << 20
	s := &Store{
		descs:   make([]string, 0, min(n, capHint)),
		offsets: make([]int, 0, min(n, capHint)),
		lengths: make([]int, 0, min(n, capHint)),
	}
	for i := uint64(0); i < n; i++ {
		dl, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("db: load: record %d desc length: %w", i, err)
		}
		if dl > 1<<20 {
			return nil, fmt.Errorf("db: load: record %d implausible desc length %d", i, dl)
		}
		desc := make([]byte, dl)
		if _, err := io.ReadFull(br, desc); err != nil {
			return nil, fmt.Errorf("db: load: record %d desc: %w", i, err)
		}
		off, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("db: load: record %d offset: %w", i, err)
		}
		length, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("db: load: record %d length: %w", i, err)
		}
		if off > 1<<62 || length > 1<<31-1 {
			return nil, fmt.Errorf("db: load: record %d implausible offset %d or length %d", i, off, length)
		}
		s.descs = append(s.descs, string(desc))
		s.offsets = append(s.offsets, int(off))
		s.lengths = append(s.lengths, int(length))
		s.total += int(length)
	}
	bl, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("db: load: blob length: %w", err)
	}
	s.blob, err = readCapped(br, bl)
	if err != nil {
		return nil, fmt.Errorf("db: load: blob: %w", err)
	}
	// Validate the record table against the blob before trusting it:
	// every record must decode, cover exactly its recorded length, and
	// the records must tile the blob contiguously. Sequence relies on
	// this — it treats a decode failure after Load as memory corruption
	// and panics, so nothing a corrupt file can produce may reach it.
	for i := range s.offsets {
		if i > 0 && s.offsets[i] < s.offsets[i-1] {
			return nil, fmt.Errorf("db: load: record offsets not monotonic at %d", i)
		}
		if i == 0 && s.offsets[i] != 0 {
			return nil, fmt.Errorf("db: load: first record at offset %d, want 0", s.offsets[i])
		}
		if s.offsets[i] > len(s.blob) {
			return nil, fmt.Errorf("db: load: record %d offset %d beyond blob size %d", i, s.offsets[i], len(s.blob))
		}
		codes, consumed, err := s.coder.Decode(s.blob[s.offsets[i]:])
		if err != nil {
			return nil, fmt.Errorf("db: load: record %d: %w", i, err)
		}
		if len(codes) != s.lengths[i] {
			return nil, fmt.Errorf("db: load: record %d decodes to %d bases, table says %d", i, len(codes), s.lengths[i])
		}
		end := s.offsets[i] + consumed
		if next := len(s.blob); i+1 < len(s.offsets) {
			next = s.offsets[i+1]
			if end != next {
				return nil, fmt.Errorf("db: load: record %d ends at %d, next starts at %d", i, end, next)
			}
		} else if end != next {
			return nil, fmt.Errorf("db: load: last record ends at %d, blob is %d bytes", end, next)
		}
	}
	if len(s.offsets) == 0 && len(s.blob) != 0 {
		return nil, fmt.Errorf("db: load: %d blob bytes with no records", len(s.blob))
	}
	return s, nil
}

// readCapped reads exactly n bytes from r with incremental growth, so a
// corrupt length claim cannot force a giant up-front allocation.
func readCapped(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n {
		take := min(n-uint64(len(buf)), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, take)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// FromRecords builds a store from FASTA records.
func FromRecords(recs []dna.Record) *Store {
	var s Store
	for _, r := range recs {
		s.Add(r.Desc, r.Codes)
	}
	return &s
}
