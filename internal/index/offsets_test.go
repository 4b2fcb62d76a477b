package index

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// openFiles counts this process's open file descriptors, or returns -1
// where /proc/self/fd is not there to count them.
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil || runtime.GOOS != "linux" {
		return -1
	}
	return len(fds)
}

// TestOffsetsFreeIndexRefused: an image in the current format whose
// header says its lists carry no offsets (flag 0, which Save wrote for
// an index built without them) is refused by Load and OpenDisk from the
// header, with the message that names the rebuild.
func TestOffsetsFreeIndexRefused(t *testing.T) {
	img := saveImage(t, DefaultOptions())
	flag := len(indexMagic) + 1 // after the one-byte uvarint K
	if img[flag] != 1 {
		t.Fatalf("header byte %d is %d, want the offsets flag 1", flag, img[flag])
	}
	img[flag] = 0
	path := filepath.Join(t.TempDir(), "no-offsets.ndx")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, loadErr := Load(bytes.NewReader(img))
	x, diskErr := OpenDisk(path)
	if x != nil {
		x.Close()
		t.Error("OpenDisk returned an index")
	}
	for via, err := range map[string]error{"Load": loadErr, "OpenDisk": diskErr} {
		if err == nil || !strings.Contains(err.Error(), "rebuild with cafe-build -in <fasta> -db DIR") ||
			!strings.Contains(err.Error(), "offsets flag 0") {
			t.Errorf("%s: %v, want the rebuild message naming offsets flag 0", via, err)
		}
	}
}

// TestGammaOffsetIndexRefused pins the incompatibilities of the index
// format: an image in an earlier format — magic NDBidx1 (offsets
// gamma-coded) or NDBidx2 (each posting's id, count and offsets
// interleaved, before the lists were split into an id stream and an
// offset stream) — is refused by Load and OpenDisk from its magic
// alone, with the message that names the format and the rebuild, and
// OpenDisk leaves no file open behind the refusal.
func TestGammaOffsetIndexRefused(t *testing.T) {
	img := saveImage(t, DefaultOptions())
	if !bytes.HasPrefix(img, []byte(indexMagic)) {
		t.Fatalf("image starts %q, want %q", img[:len(indexMagic)], indexMagic)
	}
	dir := t.TempDir()
	for _, magic := range []string{"NDBidx1\n", "NDBidx2\n"} {
		old := append([]byte(magic), img[len(indexMagic):]...)
		for name, data := range map[string][]byte{"whole": old, "magic-only": old[:len(magic)]} {
			name = strings.TrimSpace(magic) + " " + name
			path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".ndx")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			x, loadErr := Load(bytes.NewReader(data))
			if x != nil {
				t.Errorf("Load of the %s image returned an index beside its error", name)
			}
			before := openFiles()
			x, diskErr := OpenDisk(path)
			if x != nil {
				x.Close()
				t.Errorf("OpenDisk of the %s image returned an index", name)
			}
			if after := openFiles(); after != before {
				t.Errorf("OpenDisk of the %s image left %d files open, had %d", name, after, before)
			}
			for via, err := range map[string]error{"Load": loadErr, "OpenDisk": diskErr} {
				if err == nil || !strings.Contains(err.Error(), "rebuild with cafe-build -in <fasta> -db DIR") ||
					!strings.Contains(err.Error(), strings.TrimSpace(magic)) {
					t.Errorf("%s of the %s image: %v, want the rebuild message naming %s", via, name, err, strings.TrimSpace(magic))
				}
			}
		}
	}
}
