package index

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// saveImage builds a real index over a deterministic store and returns
// its serialized bytes.
func saveImage(t *testing.T, opts Options) []byte {
	t.Helper()
	s := randomStore(417, 12, 250)
	idx, err := Build(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walkIndex reads every posting list of an index to the end, returning
// the first decode error, so corruption that slips past the loader is
// still surfaced as an error rather than a panic.
func walkIndex(x *Index) error {
	var it postings.Iterator
	var firstErr error
	x.Terms(func(term kmer.Term, df int) {
		x.ReaderStats(term, &it)
		for it.Next() {
		}
		if err := it.Err(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// TestLoadCorruptImages flips bits and truncates a real serialized
// index at every position and requires the loader (and a full postings
// walk of anything it accepts) to fail with an error, never a panic.
// Payload corruption that no validation can distinguish from a valid
// image (a bit flip inside a posting list can decode to a different,
// equally plausible list) is allowed to pass silently; what is not
// allowed is a crash.
func TestLoadCorruptImages(t *testing.T) {
	for name, opts := range map[string]Options{
		"plain":   {K: 4},
		"offsets": {K: 5},
	} {
		t.Run(name, func(t *testing.T) {
			img := saveImage(t, opts)

			t.Run("truncate", func(t *testing.T) {
				for cut := 0; cut < len(img); cut++ {
					_, err := Load(bytes.NewReader(img[:cut]))
					if err == nil {
						t.Fatalf("truncation to %d of %d bytes loaded cleanly", cut, len(img))
					}
				}
			})

			t.Run("bitflip", func(t *testing.T) {
				step := 1
				if testing.Short() {
					// Exhaustive position coverage costs ~20s; a prime
					// stride still crosses every header section.
					step = 13
				}
				mut := make([]byte, len(img))
				for pos := 0; pos < len(img); pos += step {
					for bit := uint(0); bit < 8; bit++ {
						copy(mut, img)
						mut[pos] ^= 1 << bit
						x, err := Load(bytes.NewReader(mut))
						if err != nil {
							continue
						}
						// Accepted: every list must still be walkable;
						// decode errors are fine, panics are not.
						_ = walkIndex(x)
					}
				}
			})

			t.Run("double-length", func(t *testing.T) {
				// Appending garbage after a valid image must not disturb
				// the loaded index.
				grown := append(append([]byte{}, img...), bytes.Repeat([]byte{0xAB}, 64)...)
				x, err := Load(bytes.NewReader(grown))
				if err != nil {
					t.Fatalf("trailing garbage broke the load: %v", err)
				}
				if err := walkIndex(x); err != nil {
					t.Fatalf("walk after trailing garbage: %v", err)
				}
			})
		})
	}
}

// TestOpenDiskCorruptFiles runs the same discipline through the paged
// reader: a corrupt file on disk must produce errors, not panics, both
// at open time and when posting lists are fetched on demand.
func TestOpenDiskCorruptFiles(t *testing.T) {
	img := saveImage(t, Options{K: 5})
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("valid", func(t *testing.T) {
		x, err := OpenDisk(write("valid.idx", img))
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		if err := walkIndex(x); err != nil {
			t.Fatalf("walk of a valid disk index: %v", err)
		}
	})

	t.Run("truncate", func(t *testing.T) {
		// Step 7 keeps the test fast while still crossing every header
		// section boundary.
		for cut := 0; cut < len(img); cut += 7 {
			x, err := OpenDisk(write("trunc.idx", img[:cut]))
			if err == nil {
				_ = walkIndex(x)
				if err := x.Close(); err != nil {
					t.Fatalf("close after truncated open: %v", err)
				}
				t.Fatalf("truncation to %d of %d bytes opened cleanly", cut, len(img))
			}
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		step := 1
		if testing.Short() {
			step = 13
		}
		mut := make([]byte, len(img))
		for pos := 0; pos < len(img); pos += step {
			copy(mut, img)
			mut[pos] ^= 0x10
			x, err := OpenDisk(write("flip.idx", mut))
			if err != nil {
				continue
			}
			_ = walkIndex(x)
			if err := x.Close(); err != nil {
				t.Fatalf("close after bit flip at %d: %v", pos, err)
			}
		}
	})
}

// TestSkippedIndexRefused pins the one incompatibility of dropping
// skipped lists: an index whose header carries a non-zero skip interval
// (its fourth field; Save writes 0) is refused by Load and OpenDisk with
// the message that names the remedy, and from the header alone — the
// image cut off right after that field fails the same way, so nothing
// past it was read.
func TestSkippedIndexRefused(t *testing.T) {
	img := saveImage(t, DefaultOptions())
	pos := len(indexMagic)
	for field := 0; field < 3; field++ { // K, offsets flag, stop fraction
		_, n := binary.Uvarint(img[pos:])
		pos += n
	}
	if img[pos] != 0 {
		t.Fatalf("a default index stores skip interval %d, want 0", img[pos])
	}
	img[pos] = 4
	dir := t.TempDir()
	for name, data := range map[string][]byte{"whole": img, "header-only": img[:pos+1]} {
		path := filepath.Join(dir, name+".ndx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, loadErr := Load(bytes.NewReader(data))
		x, diskErr := OpenDisk(path)
		if diskErr == nil {
			x.Close()
		}
		for via, err := range map[string]error{"Load": loadErr, "OpenDisk": diskErr} {
			if err == nil || !strings.Contains(err.Error(), "rebuild with cafe-build -in <fasta> -db DIR") {
				t.Errorf("%s of the %s image: %v, want the rebuild message", via, name, err)
			}
		}
	}
}
