// Package store is a persistent content-addressed artifact store: a flat
// key → bytes map on disk, bucketed by key prefix, with atomic writes and
// an LRU size bound. cmd/coldd uses it to cache generated ensembles under
// their canonical config hash — COLD is deterministic, so a cached
// artifact is exactly what a fresh generation would produce, and a million
// identical requests cost one run.
//
// Layout: <dir>/<key[:2]>/<key>, one file per artifact (the bucketed,
// lazily opened shape of the onyx disk store, without its read-modify-
// write cycle — artifacts are immutable, so Put is write-once-rename).
// Writes go to a temp file in the bucket directory and are renamed into
// place, so concurrent readers (and crashed writers) never observe a
// partial artifact. Recency is persisted via file mtimes: a Get touches
// its artifact, so the LRU survives restarts.
//
// Alongside final artifacts the store keeps one checkpoint per line-
// oriented artifact still in flight, under the key <base>.part (PutPartial
// / Partial): each write replaces the last by the same atomic rename, Put
// of the base drops it, and a checkpoint whose base already exists is
// garbage-collected on open. The first operation after Open also sweeps
// tmp-* debris older than an hour, so crashed writers cannot leak disk
// past the LRU bound.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/networksynth/cold/internal/telemetry"
)

// ErrNotFound is returned by Get for keys with no stored artifact.
var ErrNotFound = errors.New("store: artifact not found")

// partialSuffix turns a base key into its checkpoint key. A checkpoint
// ("partial") is the durable prefix of a line-oriented artifact still
// being produced: <base>.part holds the complete lines written so far of
// the artifact that will eventually be stored under <base>. cmd/coldd uses
// partials to resume interrupted ensemble generations.
const partialSuffix = ".part"

// tempMaxAge gates the open-time sweep of leftover tmp-* files: a temp
// file older than this cannot belong to a live writer (Puts hold the
// store lock for their whole write) and is deleted as crash debris.
// Younger ones are spared — another process sharing the directory may
// still be renaming them into place.
const tempMaxAge = time.Hour

// Options bound the store.
type Options struct {
	// MaxBytes is the LRU size bound: when the artifacts' total size
	// exceeds it, least-recently-used artifacts are evicted until it fits
	// (the artifact being written is never evicted by its own Put).
	// Zero means unbounded.
	MaxBytes int64
}

// Stats are the store's operation counters since Open.
//
// Accounting contract: every lookup — Get or Has — counts exactly one hit
// or one miss. An invalid key can never be stored, so looking one up is a
// miss (alongside its error), not an uncounted early return; I/O failures
// other than a vanished artifact count nothing, since they say nothing
// about presence. Hits/Misses therefore sum to total lookups, making
// hit-rate math safe for callers that probe with Has before Get.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes describe current contents (0 until the index has
	// been loaded by the first operation). Partial checkpoints count here
	// too — they occupy the same disk the LRU bound caps.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Partials is the number of checkpoint (".part") entries currently
	// indexed; PartialsDropped counts checkpoints removed because their
	// final artifact was Put (or, at open, already existed) or because
	// they were corrupt or vanished on read.
	Partials        int    `json:"partials"`
	PartialsDropped uint64 `json:"partials_dropped"`
	// TempSwept counts stale tmp-* files (older than an hour — crashed
	// writers' debris) deleted by the open-time sweep. Without the sweep
	// they would silently consume the disk the LRU bound is meant to cap.
	TempSwept uint64 `json:"temp_swept"`
}

type entry struct {
	size  int64
	atime time.Time // recency; seeded from mtime, bumped on Get
}

// Store is a disk-backed artifact store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	loaded  bool
	entries map[string]*entry
	size    int64
	stats   Stats

	// Optional latency instruments (nanoseconds), attached at wiring time
	// via SetLatencyHistograms; nil histograms are no-ops.
	getDur *telemetry.Histogram
	putDur *telemetry.Histogram
}

// Open prepares a store rooted at dir, creating it if needed. The on-disk
// index is loaded lazily on first use, so opening a large cold cache is
// cheap.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxBytes < 0 {
		return nil, fmt.Errorf("store: negative MaxBytes %d", opts.MaxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, opts: opts, entries: make(map[string]*entry)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetLatencyHistograms attaches optional wall-time instruments for Get and
// Put (observed in nanoseconds, covering the whole call including the lazy
// index load and disk I/O). Either may be nil. Call before the store sees
// concurrent use — this is wiring, not a runtime toggle.
func (s *Store) SetLatencyHistograms(get, put *telemetry.Histogram) {
	s.getDur = get
	s.putDur = put
}

// validKey reports whether key is safe as a file name in the bucketed
// layout: at least 2 characters, all from [a-z0-9._-] (content hashes and
// their suffixes), so keys can never traverse out of the store.
func validKey(key string) bool {
	if len(key) < 2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// load builds the in-memory index from disk on the first operation. It
// also sweeps crash debris: stale tmp-* files past tempMaxAge, and
// checkpoints orphaned by a crash between a Put and its checkpoint's
// removal (their final artifact exists). Callers hold s.mu.
func (s *Store) load() error {
	if s.loaded {
		return nil
	}
	buckets, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, b := range buckets {
		if !b.IsDir() || len(b.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, b.Name()))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() {
				continue
			}
			// A crashed writer's temp file never got renamed into place;
			// once it is too old to belong to a live writer, delete it —
			// leaked temp files otherwise escape the LRU bound forever.
			if strings.HasPrefix(name, "tmp-") {
				if info, err := f.Info(); err == nil && time.Since(info.ModTime()) > tempMaxAge {
					if os.Remove(filepath.Join(s.dir, b.Name(), name)) == nil {
						s.stats.TempSwept++
					}
				}
				continue
			}
			// Skip anything else that is not a valid bucketed key.
			if !validKey(name) || name[:2] != b.Name() {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // raced with an eviction or external delete
			}
			e := &entry{size: info.Size(), atime: info.ModTime()}
			s.indexLocked(name, e)
			// ReadDir sorts by name, and <base>.part shares its base's
			// bucket, so an existing base is already indexed here.
			if base, ok := strings.CutSuffix(name, partialSuffix); ok {
				if _, final := s.entries[base]; final {
					s.removePartialLocked(name, e)
				}
			}
		}
	}
	s.loaded = true
	return nil
}

// Get returns the artifact stored under key, or ErrNotFound. A hit bumps
// the key's recency (in memory and, best-effort, on disk via mtime). Every
// Get counts a hit or a miss per the Stats accounting contract — including
// invalid keys, which are misses by definition.
func (s *Store) Get(key string) ([]byte, error) {
	start := time.Now()
	defer func() { s.getDur.Observe(float64(time.Since(start))) }()
	if !validKey(key) {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.load(); err != nil {
		return nil, err
	}
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return nil, fmt.Errorf("store: %q: %w", key, ErrNotFound)
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		// The file vanished underneath the index (external cleanup):
		// drop the entry and report a miss.
		if errors.Is(err, os.ErrNotExist) {
			s.dropLocked(key, e)
			s.stats.Misses++
			return nil, fmt.Errorf("store: %q: %w", key, ErrNotFound)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	now := time.Now()
	e.atime = now
	_ = os.Chtimes(s.path(key), now, now) // best-effort: persists LRU order
	s.stats.Hits++
	return data, nil
}

// Has reports whether key is stored, without reading it or bumping its
// recency. Like Get, each Has counts one hit or miss (invalid keys miss),
// so Hits+Misses stays the total lookup count across both methods.
func (s *Store) Has(key string) (bool, error) {
	if !validKey(key) {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return false, fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.load(); err != nil {
		return false, err
	}
	if _, ok := s.entries[key]; ok {
		s.stats.Hits++
		return true, nil
	}
	s.stats.Misses++
	return false, nil
}

// Put stores data under key atomically: the artifact is written to a temp
// file in the key's bucket and renamed into place, so readers only ever
// see complete artifacts. Overwriting an existing key is allowed (the
// content-addressed caller writes identical bytes anyway). The key's
// checkpoint, if any, is dead weight once the artifact is whole, so Put
// removes it. Put then evicts least-recently-used artifacts as needed to
// respect Options.MaxBytes — never the artifact just written.
func (s *Store) Put(key string, data []byte) error {
	start := time.Now()
	defer func() { s.putDur.Observe(float64(time.Since(start))) }()
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.load(); err != nil {
		return err
	}
	bucket := filepath.Join(s.dir, key[:2])
	if err := os.MkdirAll(bucket, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(bucket, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()           //nolint:errcheck
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("store: %w", err)
	}
	if old, ok := s.entries[key]; ok {
		s.dropLocked(key, old)
	}
	s.indexLocked(key, &entry{size: int64(len(data)), atime: time.Now()})
	s.stats.Puts++
	if e, ok := s.entries[key+partialSuffix]; ok {
		s.removePartialLocked(key+partialSuffix, e)
	}
	s.evictLocked(key)
	return nil
}

// PutPartial checkpoints the artifact being produced for base: data,
// which must hold exactly lines complete (newline-terminated) lines, is
// Put under <base>.part. The atomic rename replaces the previous
// checkpoint, so a crash leaves either the old one or the new one, never a
// torn one.
func (s *Store) PutPartial(base string, lines int, data []byte) error {
	if !validKey(base) || lines < 1 || completeLines(data) != lines {
		return fmt.Errorf("store: checkpoint of %q is not %d complete lines", base, lines)
	}
	return s.Put(base+partialSuffix, data)
}

// Partial returns base's checkpoint and the number of lines it holds, or
// ErrNotFound when there is none. A checkpoint that is corrupt (empty or
// ending mid-line) or unreadable is removed on sight and reads as
// ErrNotFound, so it degrades resumption, never poisons it. Partial
// probes are not lookups in the Stats hit/miss contract (that contract
// covers Get and Has).
func (s *Store) Partial(base string) (data []byte, lines int, err error) {
	if !validKey(base) {
		return nil, 0, fmt.Errorf("store: invalid key %q", base)
	}
	key := base + partialSuffix
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.load(); err != nil {
		return nil, 0, err
	}
	if e, ok := s.entries[key]; ok {
		data, err := os.ReadFile(s.path(key))
		if n := completeLines(data); err == nil && n > 0 {
			return data, n, nil
		}
		s.removePartialLocked(key, e)
	}
	return nil, 0, fmt.Errorf("store: %q: %w", key, ErrNotFound)
}

// completeLines returns how many newline-terminated lines data holds, or
// 0 when data is empty or ends mid-line.
func completeLines(data []byte) int {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return 0
	}
	return bytes.Count(data, []byte{'\n'})
}

// removePartialLocked deletes the checkpoint stored under key. A file that
// cannot be removed stays indexed. Callers hold s.mu.
func (s *Store) removePartialLocked(key string, e *entry) {
	if err := os.Remove(s.path(key)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return
	}
	s.dropLocked(key, e)
	s.stats.PartialsDropped++
}

// indexLocked adds key to the in-memory index. It and dropLocked are the
// only writers of the index, so the size and checkpoint counts they keep
// always match it. Callers hold s.mu.
func (s *Store) indexLocked(key string, e *entry) {
	s.entries[key] = e
	s.size += e.size
	if strings.HasSuffix(key, partialSuffix) {
		s.stats.Partials++
	}
}

// dropLocked removes key from the in-memory index. Callers hold s.mu.
func (s *Store) dropLocked(key string, e *entry) {
	delete(s.entries, key)
	s.size -= e.size
	if strings.HasSuffix(key, partialSuffix) {
		s.stats.Partials--
	}
}

// evictLocked deletes least-recently-used artifacts until the store fits
// Options.MaxBytes, sparing keep. Callers hold s.mu.
func (s *Store) evictLocked(keep string) {
	if s.opts.MaxBytes <= 0 || s.size <= s.opts.MaxBytes {
		return
	}
	type cand struct {
		key string
		e   *entry
	}
	cands := make([]cand, 0, len(s.entries))
	for k, e := range s.entries {
		if k != keep {
			cands = append(cands, cand{k, e})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].e.atime.Before(cands[j].e.atime) })
	for _, c := range cands {
		if s.size <= s.opts.MaxBytes {
			return
		}
		if err := os.Remove(s.path(c.key)); err != nil && !errors.Is(err, os.ErrNotExist) {
			continue // keep it indexed; better oversize than inconsistent
		}
		s.dropLocked(c.key, c.e)
		s.stats.Evictions++
	}
}

// Stats returns a snapshot of the operation counters and current contents.
// The index writers keep every field current, so it copies, never walks.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.size
	return st
}
