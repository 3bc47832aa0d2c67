package cache

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"tameir/internal/telemetry"
)

// Snapshot files are how -cache-dir warm starts work: a cache writes
// its serializable content (memo behaviour sets, lowering-cache
// metadata) to <dir>/<kind>.snap after a run and the next run loads it
// before doing any work. The format is a gob stream: a header carrying
// a magic string, the format version, the snapshot kind and the
// caller's semantics fingerprint, followed by the payload.
//
// The load path enforces wholesale rejection: the header is checked
// and the payload decoded completely before anything is returned, and
// any mismatch — wrong magic, wrong version, wrong kind, wrong
// fingerprint, truncated or corrupt payload — yields ErrStale with the
// payload untouched by the caller. A snapshot is therefore either
// applied in full or not at all, which is what makes the verdict
// argument go through: every entry a loaded snapshot contributes is
// keyed by the same full canonical strings a live run would produce,
// so a warm lookup can only ever return what a cold run would have
// computed (guarded by the fingerprint against semantics drift between
// builds).

// FormatVersion is the snapshot encoding version. Bump on any change
// to the header or payload shapes; old files are then rejected as
// stale rather than misread. Version 2: memo behaviour sets carry
// packed return sets as a type and a mask.
const FormatVersion = 2

// snapshotMagic guards against feeding arbitrary files to the decoder.
const snapshotMagic = "tameir-cache"

// ErrStale reports a snapshot that does not match the running build:
// wrong version, kind or fingerprint, or a corrupt payload. Callers
// treat it as "no snapshot" and run cold.
var ErrStale = errors.New("cache: stale or mismatched snapshot")

type snapshotHeader struct {
	Magic       string
	Version     int
	Kind        string
	Fingerprint string
}

// WriteFile writes payload as a versioned snapshot at path, atomically
// (temp file + rename), stamped with kind and fingerprint.
func WriteFile(path, kind, fingerprint string, payload any) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	enc := gob.NewEncoder(bw)
	hdr := snapshotHeader{Magic: snapshotMagic, Version: FormatVersion, Kind: kind, Fingerprint: fingerprint}
	if err := enc.Encode(hdr); err == nil {
		err = enc.Encode(payload)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile loads the snapshot at path into payload after verifying
// kind and fingerprint. A missing file surfaces as fs.ErrNotExist; any
// header mismatch or decode failure surfaces as ErrStale (wrapped with
// detail) with no guarantee about payload's partial state — callers
// must decode into a scratch value and apply only on nil error.
func ReadFile(path, kind, fingerprint string, payload any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := gob.NewDecoder(bufio.NewReader(f))
	var hdr snapshotHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("%w: %s: bad header: %v", ErrStale, path, err)
	}
	if hdr.Magic != snapshotMagic || hdr.Version != FormatVersion {
		return fmt.Errorf("%w: %s: format %q v%d, want %q v%d",
			ErrStale, path, hdr.Magic, hdr.Version, snapshotMagic, FormatVersion)
	}
	if hdr.Kind != kind {
		return fmt.Errorf("%w: %s: kind %q, want %q", ErrStale, path, hdr.Kind, kind)
	}
	if hdr.Fingerprint != fingerprint {
		return fmt.Errorf("%w: %s: fingerprint %q, want %q", ErrStale, path, hdr.Fingerprint, fingerprint)
	}
	if err := dec.Decode(payload); err != nil {
		return fmt.Errorf("%w: %s: bad payload: %v", ErrStale, path, err)
	}
	return nil
}

// Dir manages one -cache-dir: a directory of snapshot files, one per
// kind, all stamped with the same semantics fingerprint, plus the disk
// traffic counters the telemetry layer promises.
type Dir struct {
	path        string
	fingerprint string

	loads        atomic.Uint64
	staleRejects atomic.Uint64
}

// NewDir returns a handle on the snapshot directory at path. The
// directory is created on first Save, not here, so a read-only warm
// start never writes.
func NewDir(path, fingerprint string) *Dir {
	return &Dir{path: path, fingerprint: fingerprint}
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

func (d *Dir) file(kind string) string {
	return filepath.Join(d.path, kind+".snap")
}

// Load reads the kind's snapshot into payload. ok reports a usable
// snapshot was decoded in full; a missing file is (false, nil) and a
// stale or corrupt one counts a rejection and is also (false, nil) —
// both mean "run cold". Only I/O errors other than absence surface.
func (d *Dir) Load(kind string, payload any) (ok bool, err error) {
	err = ReadFile(d.file(kind), kind, d.fingerprint, payload)
	switch {
	case err == nil:
		d.loads.Add(1)
		return true, nil
	case errors.Is(err, fs.ErrNotExist):
		return false, nil
	case errors.Is(err, ErrStale):
		d.staleRejects.Add(1)
		return false, nil
	}
	return false, err
}

// Save writes the kind's snapshot, creating the directory on first
// use.
func (d *Dir) Save(kind string, payload any) error {
	if err := os.MkdirAll(d.path, 0o755); err != nil {
		return err
	}
	return WriteFile(d.file(kind), kind, d.fingerprint, payload)
}

// Loads returns the number of snapshots loaded in full.
func (d *Dir) Loads() uint64 { return d.loads.Load() }

// StaleRejects returns the number of snapshots rejected wholesale.
func (d *Dir) StaleRejects() uint64 { return d.staleRejects.Load() }

// DiskStats is a point-in-time copy of persistent-cache traffic: files
// loaded, lookups served by disk-loaded entries (counted by the caches
// that track provenance), and wholesale rejections.
type DiskStats struct {
	Loads        uint64
	Hits         uint64
	StaleRejects uint64
}

// Publish exports the counters the warm-start CI gate asserts on.
func (s DiskStats) Publish(reg *telemetry.Registry, class telemetry.Class) {
	reg.Counter("cache_disk_loads_total", class,
		"persistent cache snapshots loaded in full").Add(s.Loads)
	reg.Counter("cache_disk_hits_total", class,
		"cache lookups served by disk-loaded entries").Add(s.Hits)
	reg.Counter("cache_disk_stale_rejects_total", class,
		"persistent cache snapshots rejected wholesale").Add(s.StaleRejects)
}
