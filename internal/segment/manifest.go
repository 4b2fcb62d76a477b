package segment

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"nucleodb/internal/db"
	"nucleodb/internal/index"
)

// ManifestFile names the database directory's root: a small JSON
// document listing the live segments in order. A directory is a
// database exactly when this file exists. Every mutation of the layout
// follows the same crash-safe discipline: segment files are fully
// written (and renamed into place) before any manifest references
// them, and the manifest itself is replaced by write-temp-then-rename —
// so a reader always finds either the old manifest or the new one,
// both naming only complete files, and leftover files from a crash are
// garbage-collected on the next open.
const ManifestFile = "MANIFEST"

// manifestVersion is the on-disk layout format version.
const manifestVersion = 1

// Fault points, in the order a compaction (or any persisted layout
// mutation) passes them. A test hook returning an error at one of
// these points simulates a crash there: the mutation aborts and the
// directory is left exactly as a kill at that instant would leave it.
const (
	// FaultSegmentsWritten fires after new segment files are fully
	// written and renamed into place, before the manifest mentions them.
	FaultSegmentsWritten = "segments-written"
	// FaultBeforeManifestRename fires after the temporary manifest is
	// written, before it is renamed over the live one.
	FaultBeforeManifestRename = "before-manifest-rename"
	// FaultAfterManifestRename fires after the new manifest is live,
	// before superseded segment files are garbage-collected.
	FaultAfterManifestRename = "after-manifest-rename"
)

// FaultHook, when non-nil, is called at each fault point; a non-nil
// return aborts the mutation there. Test-only — production leaves it
// nil. Set it before concurrent use begins (it is read without
// synchronisation on write paths).
var FaultHook func(point string) error

func fault(point string) error {
	if FaultHook != nil {
		return FaultHook(point)
	}
	return nil
}

// manifest is the on-disk JSON document. Once written or decoded it is
// a record of a published state.
type manifest struct {
	Version  int           `json:"version"`
	NextSeg  int           `json:"next_seg"`
	Segments []manifestSeg `json:"segments"`
}

// manifestSeg describes one live segment: its file stem, its record
// count (validated against the loaded files), and its tombstoned local
// ids.
type manifestSeg struct {
	Name    string `json:"name"`
	Seqs    int    `json:"seqs"`
	Deleted []int  `json:"deleted,omitempty"`
}

// SegName returns the canonical file stem of segment number n.
func SegName(n int) string { return fmt.Sprintf("seg-%06d", n) }

func storePath(dir, name string) string { return filepath.Join(dir, name+".store") }
func indexPath(dir, name string) string { return filepath.Join(dir, name+".ndx") }

// writeFileAtomic writes via a temporary file renamed into place, so a
// crash leaves either the old content or the new, never a torn file.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

// WriteFiles persists one segment's store and index under its name and
// fires the segments-written fault point. The files are complete and
// in place when this returns nil, but nothing references them until
// the caller writes a manifest — the ordering crash safety rests on.
func WriteFiles(dir string, g *Segment) error {
	if g.Name == "" {
		return fmt.Errorf("segment: cannot persist an unnamed segment")
	}
	if err := writeFileAtomic(storePath(dir, g.Name), g.Store.Save); err != nil {
		return err
	}
	if err := writeFileAtomic(indexPath(dir, g.Name), g.Index.Save); err != nil {
		return err
	}
	return fault(FaultSegmentsWritten)
}

// RemoveFiles deletes one segment's files, best-effort (used to drop
// the output of an abandoned compaction).
func RemoveFiles(dir, name string) {
	os.Remove(storePath(dir, name))
	os.Remove(indexPath(dir, name))
}

// WriteManifest atomically replaces dir's manifest with one describing
// set, firing the before/after-manifest-rename fault points around the
// rename. nextSeg is the next unused segment number.
func WriteManifest(dir string, set *Set, nextSeg int) error {
	m := manifest{Version: manifestVersion, NextSeg: nextSeg}
	for _, g := range set.Segments() {
		if g.Name == "" {
			return fmt.Errorf("segment: manifest cannot reference an unnamed segment")
		}
		m.Segments = append(m.Segments, manifestSeg{Name: g.Name, Seqs: g.Len(), Deleted: g.DeletedList()})
	}
	buf, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("segment: manifest: %w", err)
	}
	buf = append(buf, '\n')
	path := filepath.Join(dir, ManifestFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("segment: manifest: %w", err)
	}
	if err := fault(FaultBeforeManifestRename); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: manifest: %w", err)
	}
	return fault(FaultAfterManifestRename)
}

// decodeManifest parses and structurally validates a manifest image.
// It owns every check that can be made without touching the segment
// files: version, a non-empty segment list, path-safe segment names
// (they are joined into file paths, so separators would escape the
// database directory), non-negative counts, and deleted ids that are
// unique and within the segment's declared record range. Cross-file
// validation (declared vs actual record counts) stays in OpenDir.
func decodeManifest(buf []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return manifest{}, fmt.Errorf("segment: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return manifest{}, fmt.Errorf("segment: manifest version %d, this build reads %d", m.Version, manifestVersion)
	}
	if len(m.Segments) == 0 {
		return manifest{}, fmt.Errorf("segment: manifest lists no segments")
	}
	if m.NextSeg < 0 {
		return manifest{}, fmt.Errorf("segment: manifest next_seg %d is negative", m.NextSeg)
	}
	seen := make(map[string]bool, len(m.Segments))
	for _, ms := range m.Segments {
		switch {
		case ms.Name == "" || ms.Name == "." || ms.Name == "..":
			return manifest{}, fmt.Errorf("segment: manifest names unusable segment %q", ms.Name)
		case strings.ContainsAny(ms.Name, "/\\"):
			return manifest{}, fmt.Errorf("segment: manifest segment name %q contains a path separator", ms.Name)
		case seen[ms.Name]:
			return manifest{}, fmt.Errorf("segment: manifest lists segment %q twice", ms.Name)
		case ms.Seqs < 0:
			return manifest{}, fmt.Errorf("segment: manifest segment %q declares %d records", ms.Name, ms.Seqs)
		}
		seen[ms.Name] = true
		del := make(map[int]bool, len(ms.Deleted))
		for _, id := range ms.Deleted {
			if id < 0 || id >= ms.Seqs {
				return manifest{}, fmt.Errorf("segment: manifest segment %q deletes id %d outside [0,%d)", ms.Name, id, ms.Seqs)
			}
			if del[id] {
				return manifest{}, fmt.Errorf("segment: manifest segment %q deletes id %d twice", ms.Name, id)
			}
			del[id] = true
		}
	}
	return m, nil
}

// readManifest loads and validates dir's manifest. A directory without
// one is not a database this build can read; the only remedy is a
// rebuild from its FASTA source, so the error says that.
func readManifest(dir string) (manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return manifest{}, fmt.Errorf("segment: open: %s holds no %s: not a database directory; rebuild it with cafe-build -in <fasta> -db %s", dir, ManifestFile, dir)
	}
	if err != nil {
		return manifest{}, fmt.Errorf("segment: open: %w", err)
	}
	return decodeManifest(buf)
}

// OpenDir opens a database directory: loads the manifest,
// loads (or, when paged, disk-opens) every listed segment, validates
// counts, garbage-collects files a crash left unreferenced, and
// returns the live Set plus the next unused segment number.
func OpenDir(dir string, paged bool) (*Set, int, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	segs := make([]*Segment, len(m.Segments))
	base := 0
	closeAll := func() {
		for _, g := range segs {
			if g != nil {
				g.Index.Close()
			}
		}
	}
	for i, ms := range m.Segments {
		sf, err := os.Open(storePath(dir, ms.Name))
		if err != nil {
			closeAll()
			return nil, 0, fmt.Errorf("segment: open: %w", err)
		}
		store, err := db.Load(sf)
		sf.Close()
		if err != nil {
			closeAll()
			return nil, 0, fmt.Errorf("segment: open %s: %w", ms.Name, err)
		}
		var idx *index.Index
		if paged {
			idx, err = index.OpenDisk(indexPath(dir, ms.Name))
		} else {
			var xf *os.File
			xf, err = os.Open(indexPath(dir, ms.Name))
			if err == nil {
				idx, err = index.Load(xf)
				xf.Close()
			}
		}
		if err != nil {
			closeAll()
			return nil, 0, fmt.Errorf("segment: open %s: %w", ms.Name, err)
		}
		if store.Len() != ms.Seqs {
			idx.Close()
			closeAll()
			return nil, 0, fmt.Errorf("segment: %s has %d records, manifest says %d", ms.Name, store.Len(), ms.Seqs)
		}
		g, err := New(ms.Name, store, idx, base)
		if err != nil {
			idx.Close()
			closeAll()
			return nil, 0, err
		}
		if len(ms.Deleted) > 0 {
			g, err = g.WithDeleted(ms.Deleted)
			if err != nil {
				idx.Close()
				closeAll()
				return nil, 0, fmt.Errorf("segment: %s: %w", ms.Name, err)
			}
		}
		segs[i] = g
		base += g.Len()
	}
	set, err := NewSet(segs)
	if err != nil {
		closeAll()
		return nil, 0, err
	}
	nextSeg := m.NextSeg
	for _, g := range segs {
		// Defensive: a hand-edited manifest could name segments at or
		// past next_seg; never reuse a live name.
		var n int
		if _, err := fmt.Sscanf(g.Name, "seg-%d", &n); err == nil && n >= nextSeg {
			nextSeg = n + 1
		}
	}
	GC(dir, set)
	return set, nextSeg, nil
}

// GC removes segment files and temporaries the manifest no longer
// references — the debris of a crash between writing files and
// renaming the manifest, or of a completed swap killed before cleanup.
// Best-effort: removal errors are ignored (the next open retries).
//
// seg-*.sig files are always stale: they are the signature indexes an
// older cafe-build could write beside each segment, which nothing
// reads any more.
func GC(dir string, set *Set) {
	live := map[string]bool{ManifestFile: true}
	for _, g := range set.Segments() {
		live[g.Name+".store"] = true
		live[g.Name+".ndx"] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || live[name] {
			continue
		}
		stale := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "seg-") &&
				(strings.HasSuffix(name, ".store") || strings.HasSuffix(name, ".ndx") || strings.HasSuffix(name, ".sig")))
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
