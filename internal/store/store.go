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
// Alongside final artifacts the store keeps checkpoints of line-oriented
// artifacts still in flight, under <base>.part-<lines> keys (PutPartial /
// NewestPartial / DeletePartials): at most one per base, written with the
// same atomic rename, validated on read, and garbage-collected on open
// once orphaned or superseded. The first operation after Open also sweeps
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
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/networksynth/cold/internal/telemetry"
)

// ErrNotFound is returned by Get for keys with no stored artifact.
var ErrNotFound = errors.New("store: artifact not found")

// partialSep separates a checkpoint key's base from its line count. A
// checkpoint ("partial") is the durable prefix of a line-oriented artifact
// still being produced: <base>.part-<lines> holds exactly <lines> complete
// lines of the artifact that will eventually be promoted to <base>.
// cmd/coldd uses partials to resume interrupted ensemble generations.
const partialSep = ".part-"

// tempMaxAge gates the open-time sweep of leftover tmp-* files: a temp
// file older than this cannot belong to a live writer (Puts hold the
// store lock for their whole write) and is deleted as crash debris.
// Younger ones are spared — another process sharing the directory may
// still be renaming them into place.
const tempMaxAge = time.Hour

// PartialKey returns the checkpoint key holding the first lines lines of
// the artifact that will be stored under base.
func PartialKey(base string, lines int) string {
	return base + partialSep + strconv.Itoa(lines)
}

// parsePartialKey splits a checkpoint key into its base key and line
// count; ok is false for keys outside the partial namespace. It accepts
// exactly the keys PartialKey writes for a valid base: the count must be
// canonical decimal, so "<base>.part-02" or "<base>.part-+2" is not a
// second checkpoint of "<base>.part-2" that PutPartial's pruning misses.
func parsePartialKey(key string) (base string, lines int, ok bool) {
	i := strings.LastIndex(key, partialSep)
	if i < 0 {
		return "", 0, false
	}
	base, digits := key[:i], key[i+len(partialSep):]
	if !validKey(base) || digits == "" || digits[0] < '1' || digits[0] > '9' {
		return "", 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return "", 0, false
	}
	return base, n, true
}

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
	// Partials is the number of checkpoint (".part-") entries currently
	// indexed; PartialsDropped counts checkpoints removed because they were
	// superseded by a newer one, orphaned by their final artifact, invalid
	// on read, or promoted (DeletePartials).
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
// checkpoint partials that are orphaned (their final artifact exists) or
// superseded (a same-base partial with more lines exists). Callers hold
// s.mu.
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
			s.entries[name] = &entry{size: info.Size(), atime: info.ModTime()}
			s.size += info.Size()
		}
	}
	// GC checkpoints: a partial whose final artifact exists is left over
	// from a crash between promotion and cleanup, and only the newest
	// checkpoint per base is worth resuming from.
	newest := make(map[string]int)
	for k := range s.entries {
		if b, n, ok := parsePartialKey(k); ok && n > newest[b] {
			newest[b] = n
		}
	}
	for k, e := range s.entries {
		b, n, ok := parsePartialKey(k)
		if !ok {
			continue
		}
		if _, final := s.entries[b]; final || n < newest[b] {
			if err := os.Remove(s.path(k)); err != nil && !errors.Is(err, os.ErrNotExist) {
				continue
			}
			s.dropLocked(k, e)
			s.stats.PartialsDropped++
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
// content-addressed caller writes identical bytes anyway). Put then
// evicts least-recently-used artifacts as needed to respect
// Options.MaxBytes — never the artifact just written.
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
		s.size -= old.size
	}
	s.entries[key] = &entry{size: int64(len(data)), atime: time.Now()}
	s.size += int64(len(data))
	s.stats.Puts++
	s.evictLocked(key)
	return nil
}

// PutPartial checkpoints the first lines complete lines of the artifact
// being produced for base: data is stored under PartialKey(base, lines)
// with Put's usual temp+rename atomicity (a crash never leaves a torn
// checkpoint), then older checkpoints of the same base are pruned — at
// most one partial per base survives, the newest. data must hold exactly
// lines newline-terminated lines; NewestPartial validates this on read
// and discards checkpoints that do not.
func (s *Store) PutPartial(base string, lines int, data []byte) error {
	if lines < 1 {
		return fmt.Errorf("store: checkpoint of %q with %d lines", base, lines)
	}
	if err := s.Put(PartialKey(base, lines), data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.entries {
		if b, n, ok := parsePartialKey(k); ok && b == base && n < lines {
			if err := os.Remove(s.path(k)); err != nil && !errors.Is(err, os.ErrNotExist) {
				continue
			}
			s.dropLocked(k, e)
			s.stats.PartialsDropped++
		}
	}
	return nil
}

// NewestPartial returns the newest valid checkpoint for base — the
// indexed partial with the most lines whose content really holds that
// many complete lines — or ErrNotFound when none exists. Invalid or
// vanished partials are deleted on sight and the next-newest is tried, so
// a corrupt checkpoint degrades resumption, never poisons it. Partial
// probes are not lookups in the Stats hit/miss contract (that contract
// covers Get and Has).
func (s *Store) NewestPartial(base string) (data []byte, lines int, err error) {
	if !validKey(base) {
		return nil, 0, fmt.Errorf("store: invalid key %q", base)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.load(); err != nil {
		return nil, 0, err
	}
	for {
		var (
			best      string
			bestLines int
			bestE     *entry
		)
		for k, e := range s.entries {
			if b, n, ok := parsePartialKey(k); ok && b == base && n > bestLines {
				best, bestLines, bestE = k, n, e
			}
		}
		if best == "" {
			return nil, 0, fmt.Errorf("store: %q: %w", base, ErrNotFound)
		}
		data, err := os.ReadFile(s.path(best))
		if err == nil && validPartial(data, bestLines) {
			return data, bestLines, nil
		}
		os.Remove(s.path(best)) //nolint:errcheck
		s.dropLocked(best, bestE)
		s.stats.PartialsDropped++
	}
}

// validPartial reports whether data holds exactly lines complete
// (newline-terminated) lines — the checkpoint's self-consistency check.
func validPartial(data []byte, lines int) bool {
	return len(data) > 0 && data[len(data)-1] == '\n' && bytes.Count(data, []byte{'\n'}) == lines
}

// DeletePartials removes every checkpoint of base; callers invoke it
// after promoting the final artifact, when the partials are dead weight.
func (s *Store) DeletePartials(base string) error {
	if !validKey(base) {
		return fmt.Errorf("store: invalid key %q", base)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.load(); err != nil {
		return err
	}
	for k, e := range s.entries {
		if b, _, ok := parsePartialKey(k); ok && b == base {
			if err := os.Remove(s.path(k)); err != nil && !errors.Is(err, os.ErrNotExist) {
				continue
			}
			s.dropLocked(k, e)
			s.stats.PartialsDropped++
		}
	}
	return nil
}

// dropLocked removes key from the in-memory index. Callers hold s.mu.
func (s *Store) dropLocked(key string, e *entry) {
	delete(s.entries, key)
	s.size -= e.size
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
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.size
	for k := range s.entries {
		if _, _, ok := parsePartialKey(k); ok {
			st.Partials++
		}
	}
	return st
}
