package index

import (
	"fmt"
	"io"
	"os"
)

// OpenDisk opens an index file for paged access: the header, lexicon
// and per-sequence tables load into memory, but posting lists stay on
// disk and are read on demand per query term. This is the paper's
// operating regime — an on-disk index over a collection too large to
// hold in memory, where each query touches only its own terms' lists.
//
// The returned index supports the full read API (ReaderStats, Postings)
// concurrently from multiple goroutines; Save and SerializedBytes are
// not supported. Close releases the underlying file.
func OpenDisk(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: open disk: %w", err)
	}
	x, blobLen, _, blobOffset, err := loadHeader(f)
	if err != nil {
		_ = f.Close() // best-effort close on the error path; the load error is the one to report
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // best-effort close on the error path; the stat error is the one to report
		return nil, fmt.Errorf("index: open disk: %w", err)
	}
	if st.Size() < blobOffset+int64(blobLen) {
		_ = f.Close() // best-effort close on the error path; the size mismatch is the one to report
		return nil, fmt.Errorf("index: open disk: file is %d bytes, blob needs %d",
			st.Size(), blobOffset+int64(blobLen))
	}
	x.blobLen = int(blobLen)
	x.closer = f
	x.fetch = func(off uint64, n uint32, dst []byte) ([]byte, error) {
		buf := dst
		if uint64(len(buf)) < uint64(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := f.ReadAt(buf, blobOffset+int64(off)); err != nil {
			return nil, fmt.Errorf("index: disk read at %d+%d: %w", blobOffset, off, err)
		}
		return buf, nil
	}
	return x, nil
}

// Close releases resources held by a disk-opened index. It is a no-op
// for in-memory indexes.
func (x *Index) Close() error {
	if x.closer == nil {
		return nil
	}
	err := x.closer.Close()
	x.closer = nil
	x.fetch = func(uint64, uint32, []byte) ([]byte, error) {
		return nil, fmt.Errorf("index: read after Close: %w", os.ErrClosed)
	}
	return err
}

// Disk reports whether the index reads posting lists from disk on
// demand rather than holding them in memory.
func (x *Index) Disk() bool { return x.fetch != nil }

var _ io.Closer = (*Index)(nil)
