package index

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// saveToFile writes idx into a temp file and returns its path.
func saveToFile(t *testing.T, idx *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.ndx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenDiskMatchesLoad(t *testing.T) {
	s := randomStore(181, 60, 300)
	for _, opts := range []Options{
		{K: 5},
		{SpacedMask: "110101"},
	} {
		built, err := Build(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := saveToFile(t, built)
		disk, err := OpenDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		if !disk.Disk() {
			t.Fatal("OpenDisk index not marked disk-backed")
		}
		if disk.NumSeqs() != built.NumSeqs() || disk.NumTermsIndexed() != built.NumTermsIndexed() ||
			disk.PostingsBytes() != built.PostingsBytes() {
			t.Fatalf("disk index shape differs")
		}
		built.Terms(func(term kmer.Term, df int) {
			want, err := built.Postings(term)
			if err != nil {
				t.Fatal(err)
			}
			got, err := disk.Postings(term)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("term %d postings differ on disk", term)
			}
		})
		if err := disk.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := disk.Postings(kmer.Term(0)); err == nil {
			if got, _ := disk.Postings(kmer.Term(0)); got != nil {
				t.Error("read after Close returned data")
			}
		}
	}
}

func TestOpenDiskConcurrentReads(t *testing.T) {
	s := randomStore(182, 100, 400)
	built, err := Build(s, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := saveToFile(t, built)
	disk, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	var terms []kmer.Term
	disk.Terms(func(tm kmer.Term, df int) { terms = append(terms, tm) })
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			var it postings.Iterator
			for i := start; i < len(terms); i += 8 {
				df, _ := disk.ReaderStats(terms[i], &it)
				n := 0
				for it.Next() {
					n++
				}
				if it.Err() != nil {
					errs <- it.Err()
					return
				}
				if n != df {
					errs <- os.ErrInvalid
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOpenDiskErrors(t *testing.T) {
	if _, err := OpenDisk(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	// Truncated file: header parses but blob is short.
	s := randomStore(183, 20, 200)
	built, err := Build(s, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := saveToFile(t, built)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "short.ndx")
	if err := os.WriteFile(short, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(short); err == nil {
		t.Error("truncated blob accepted")
	}
}

// TestOpenDiskReadErrorReported injects a failed paged read the one way
// that needs no hook — reading after Close — and requires the iterator
// to report that read, not a corrupt list: an operator sent after index
// corruption that is not there is the bug this pins.
func TestOpenDiskReadErrorReported(t *testing.T) {
	built, err := Build(randomStore(185, 20, 200), Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDisk(saveToFile(t, built))
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	var it postings.Iterator
	if df, _ := disk.ReaderStats(kmer.Term(built.terms[0]), &it); df == 0 {
		t.Fatal("first lexicon term has no list")
	}
	if it.Next() {
		t.Fatal("Next returned an entry from a closed index")
	}
	err = it.Err()
	if err == nil || !strings.Contains(err.Error(), "read after Close") || strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Err() = %v, want the read after Close, not a corrupt list", err)
	}
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Err() = %v does not wrap os.ErrClosed", err)
	}
	// The iterator is reusable: a later list reads clean.
	if built.ReaderStats(kmer.Term(built.terms[0]), &it); !it.Next() || it.Err() != nil {
		t.Fatalf("iterator not reusable after a failed read: %v", it.Err())
	}
}

func TestDiskIndexSaveRefused(t *testing.T) {
	s := randomStore(184, 10, 200)
	built, err := Build(s, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDisk(saveToFile(t, built))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if err := disk.Save(os.Stderr); err == nil {
		t.Error("Save on disk index accepted")
	}
}
