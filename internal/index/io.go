package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"nucleodb/internal/postings"
)

// indexMagic identifies the on-disk index format, version 3: posting
// lists split into an id stream and an offset stream (see package
// postings), offset gaps Rice-coded with a parameter from their
// sequence's length. Version 2 interleaved each posting's id, count and
// offsets, and version 1 also gamma-coded the offsets; both are refused,
// not decoded (refusedMagics).
const indexMagic = "NDBidx3\n"

// refusedMagics names the earlier formats' magics and what changed
// since, for the rebuild message.
var refusedMagics = map[string]string{
	"NDBidx1\n": "gamma-coded offsets",
	"NDBidx2\n": "interleaved ids and offsets",
}

// SerializedBytes returns the exact on-disk size of the index: the
// measure the size experiments report, since the disk format
// delta-codes the lexicon that SizeBytes counts as flat arrays.
func (x *Index) SerializedBytes() (int, error) {
	var cw countingWriter
	if err := x.Save(&cw); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// Save writes the index to w. The format is:
//
//	magic
//	uvarint K, offsets flag 1, stopFraction×1e6, a reserved 0 (loadHeader
//	refuses any other flag or reserved value), maskLen, maskLen bytes of
//	spaced mask
//	uvarint numSeqs, numSeqs × uvarint sequence length
//	uvarint numStopped, stopped terms delta-coded
//	uvarint numTerms, per term: uvarint term delta, df, list length
//	uvarint blob length, blob
func (x *Index) Save(w io.Writer) error {
	if x.fetch != nil {
		return fmt.Errorf("index: Save is unsupported on a disk-opened index; copy the file instead")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(indexMagic); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	for _, v := range []uint64{uint64(x.opts.K), 1, uint64(x.opts.StopFraction * 1e6), 0, uint64(len(x.opts.SpacedMask))} {
		if err := put(v); err != nil {
			return fmt.Errorf("index: save header: %w", err)
		}
	}
	if _, err := bw.WriteString(x.opts.SpacedMask); err != nil {
		return fmt.Errorf("index: save header: %w", err)
	}
	if err := put(uint64(x.NumSeqs())); err != nil {
		return fmt.Errorf("index: save header: %w", err)
	}
	for _, l := range x.seqLens {
		if err := put(uint64(l)); err != nil {
			return fmt.Errorf("index: save lengths: %w", err)
		}
	}
	if err := put(uint64(len(x.stopped))); err != nil {
		return fmt.Errorf("index: save stop list: %w", err)
	}
	prev := uint64(0)
	for _, t := range x.stopped {
		if err := put(t - prev); err != nil {
			return fmt.Errorf("index: save stop list: %w", err)
		}
		prev = t
	}
	if err := put(uint64(len(x.terms))); err != nil {
		return fmt.Errorf("index: save lexicon: %w", err)
	}
	prev = 0
	for i, t := range x.terms {
		if err := put(t - prev); err != nil {
			return fmt.Errorf("index: save lexicon: %w", err)
		}
		prev = t
		if err := put(uint64(x.dfs[i])); err != nil {
			return fmt.Errorf("index: save lexicon: %w", err)
		}
		_, n := x.listSpan(i)
		if err := put(uint64(n)); err != nil {
			return fmt.Errorf("index: save lexicon: %w", err)
		}
	}
	if err := put(uint64(len(x.blob))); err != nil {
		return fmt.Errorf("index: save blob: %w", err)
	}
	if _, err := bw.Write(x.blob); err != nil {
		return fmt.Errorf("index: save blob: %w", err)
	}
	return bw.Flush()
}

// Load reads an index previously written by Save, including its blob,
// into memory.
func Load(r io.Reader) (*Index, error) {
	x, blobLen, br, _, err := loadHeader(r)
	if err != nil {
		return nil, err
	}
	x.blob, err = readCapped(br, blobLen)
	if err != nil {
		return nil, fmt.Errorf("index: load blob: %w", err)
	}
	return x, nil
}

// readCapped reads exactly n bytes from r, growing the buffer
// incrementally so that a corrupt length claim fails with a read error
// after a bounded allocation instead of a single n-byte make — header
// fields must never size allocations the data cannot back.
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

// countingReader tracks how many bytes have been consumed from the
// underlying reader, so OpenDisk can locate the blob.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// loadHeader parses the header and lexicon (everything before the
// blob) and returns the index without its blob, the blob length, the
// buffered reader positioned at the blob, and the blob's byte offset
// in the original stream.
func loadHeader(r io.Reader) (*Index, uint64, *bufio.Reader, int64, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	fail := func(err error) (*Index, uint64, *bufio.Reader, int64, error) {
		return nil, 0, nil, 0, err
	}
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fail(fmt.Errorf("index: load: %w", err))
	}
	if what, ok := refusedMagics[string(magic)]; ok {
		return fail(fmt.Errorf("index: load: index format %q (%s) is no longer read: rebuild with cafe-build -in <fasta> -db DIR", strings.TrimSpace(string(magic)), what))
	}
	if string(magic) != indexMagic {
		return fail(fmt.Errorf("index: load: bad magic %q", magic))
	}
	get := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("index: load %s: %w", what, err)
		}
		return v, nil
	}
	k, err := get("K")
	if err != nil {
		return fail(err)
	}
	offFlag, err := get("offsets flag")
	if err != nil {
		return fail(err)
	}
	// Flag 0 marks an index built without offsets, which searches seed
	// their bands from. Refuse it from the header, before the lexicon.
	if offFlag != 1 {
		return fail(fmt.Errorf("index: load: index without offsets (offsets flag %d) is no longer read: rebuild with cafe-build -in <fasta> -db DIR", offFlag))
	}
	stopFrac, err := get("stop fraction")
	if err != nil {
		return fail(err)
	}
	// The fourth field is reserved: a non-zero value is the skip interval
	// of an index whose lists carry skip headers, a list format nothing
	// here decodes. Refuse it from the header, before the lexicon.
	skipInterval, err := get("skip interval")
	if err != nil {
		return fail(err)
	}
	if skipInterval != 0 {
		return fail(fmt.Errorf("index: load: skipped posting lists (skip interval %d) are no longer supported: built with cafe-build -skip N; rebuild with cafe-build -in <fasta> -db DIR", skipInterval))
	}
	maskLen, err := get("spaced mask length")
	if err != nil {
		return fail(err)
	}
	if maskLen > 256 {
		return fail(fmt.Errorf("index: load: implausible spaced mask length %d", maskLen))
	}
	maskBytes := make([]byte, maskLen)
	if _, err := io.ReadFull(br, maskBytes); err != nil {
		return fail(fmt.Errorf("index: load spaced mask: %w", err))
	}
	// Bound every header field as uint64 BEFORE converting to int.
	// int(v) on a 32-bit platform keeps only the low 32 bits, so an
	// adversarial k of 1<<32+9 would silently decode as 9 and sail
	// through opts.validate; the checks must happen at full width.
	if k > MaxK {
		return fail(fmt.Errorf("index: load: interval length %d above %d", k, MaxK))
	}
	if stopFrac > 1e6 {
		return fail(fmt.Errorf("index: load: stop fraction %d above 1e6", stopFrac))
	}
	opts := Options{
		K:            int(k),
		StoreOffsets: true,
		StopFraction: float64(stopFrac) / 1e6,
		SpacedMask:   string(maskBytes),
	}
	if err := opts.validate(); err != nil {
		return fail(fmt.Errorf("index: load: %w", err))
	}
	coder, err := opts.coder()
	if err != nil {
		return fail(fmt.Errorf("index: load: %w", err))
	}
	if opts.SpacedMask != "" && coder.K() != opts.K {
		return fail(fmt.Errorf("index: load: mask weight %d does not match stored K %d", coder.K(), opts.K))
	}
	numSeqs, err := get("sequence count")
	if err != nil {
		return fail(err)
	}
	// 1<<31-1, not 1<<40: numSeqs feeds int(numSeqs) and sequence IDs
	// are int32 throughout, so anything above that would truncate on
	// 32-bit platforms and overflow IDs on 64-bit ones.
	if numSeqs > 1<<31-1 {
		return fail(fmt.Errorf("index: load: implausible sequence count %d", numSeqs))
	}
	// Counts below size allocations from untrusted input, so every slice
	// grows incrementally with a capped initial capacity: each element
	// consumes at least one byte from the reader, so a lying count fails
	// with a read error after a bounded allocation rather than an OOM.
	const capHint = 1 << 20
	x := &Index{opts: opts, coder: coder}
	x.seqLens = make([]int32, 0, min(numSeqs, capHint))
	for i := uint64(0); i < numSeqs; i++ {
		l, err := get("sequence length")
		if err != nil {
			return fail(err)
		}
		if l > 1<<31-1 {
			return fail(fmt.Errorf("index: load: sequence %d length %d overflows", i, l))
		}
		x.seqLens = append(x.seqLens, int32(l))
	}
	x.seqs = postings.NewSeqs(x.seqLens)
	numStopped, err := get("stop count")
	if err != nil {
		return fail(err)
	}
	if numStopped > coder.NumTerms() {
		return fail(fmt.Errorf("index: load: %d stopped terms exceeds vocabulary", numStopped))
	}
	x.stopped = make([]uint64, 0, min(numStopped, capHint))
	prev := uint64(0)
	for i := uint64(0); i < numStopped; i++ {
		d, err := get("stopped term")
		if err != nil {
			return fail(err)
		}
		if d > coder.NumTerms() || prev+d >= coder.NumTerms() {
			return fail(fmt.Errorf("index: load: stopped term %d outside vocabulary", i))
		}
		prev += d
		x.stopped = append(x.stopped, prev)
	}
	numTerms, err := get("term count")
	if err != nil {
		return fail(err)
	}
	if numTerms > coder.NumTerms() {
		return fail(fmt.Errorf("index: load: %d terms exceeds vocabulary", numTerms))
	}
	x.terms = make([]uint64, 0, min(numTerms, capHint))
	x.dfs = make([]uint32, 0, min(numTerms, capHint))
	x.ends = make([]uint64, 0, min(numTerms, capHint))
	prev = 0
	var off uint64
	for i := uint64(0); i < numTerms; i++ {
		d, err := get("term")
		if err != nil {
			return fail(err)
		}
		if i == 0 {
			// The first delta is the term itself; later deltas are ≥ 1.
			if d >= coder.NumTerms() {
				return fail(fmt.Errorf("index: load: term %d outside vocabulary", i))
			}
		} else if d == 0 || d >= coder.NumTerms() || prev+d >= coder.NumTerms() {
			return fail(fmt.Errorf("index: load: term %d outside vocabulary", i))
		}
		prev += d
		x.terms = append(x.terms, prev)
		df, err := get("df")
		if err != nil {
			return fail(err)
		}
		if df == 0 || df > numSeqs {
			return fail(fmt.Errorf("index: load: term %d df %d outside (0,%d]", i, df, numSeqs))
		}
		x.dfs = append(x.dfs, uint32(df))
		l, err := get("list length")
		if err != nil {
			return fail(err)
		}
		if l > 1<<31-1 {
			return fail(fmt.Errorf("index: load: term %d list length %d overflows", i, l))
		}
		off += l
		x.ends = append(x.ends, off)
	}
	blobLen, err := get("blob length")
	if err != nil {
		return fail(err)
	}
	if blobLen != off {
		return fail(fmt.Errorf("index: load: blob length %d does not match lexicon total %d", blobLen, off))
	}
	blobOffset := cr.n - int64(br.Buffered())
	return x, blobLen, br, blobOffset, nil
}
