package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := "abcdef0123"
	want := []byte("hello artifact")
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get before Put = %v, want ErrNotFound", err)
	}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	ok, err := s.Has(key)
	if err != nil || !ok {
		t.Fatalf("Has = %v, %v; want true", ok, err)
	}
	// Get-miss, Get-hit, Has-hit: per the accounting contract, Has counts
	// a lookup too.
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 || st.Bytes != int64(len(want)) {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestLookupAccounting pins the Stats contract: every Get and Has counts
// exactly one hit or miss — invalid keys included — so Hits+Misses equals
// total lookups.
func TestLookupAccounting(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("feedface", []byte("x")); err != nil {
		t.Fatal(err)
	}
	lookups := 0
	get := func(key string) {
		s.Get(key) //nolint:errcheck
		lookups++
	}
	has := func(key string) {
		s.Has(key) //nolint:errcheck
		lookups++
	}
	get("feedface")  // hit
	get("absentkey") // miss
	get("NOT/valid") // invalid key: miss, not an uncounted error
	has("feedface")  // hit
	has("absentkey") // miss
	has("NOT/valid") // invalid key: miss
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 2, 4", st.Hits, st.Misses)
	}
	if int(st.Hits+st.Misses) != lookups {
		t.Fatalf("hits+misses = %d, want %d lookups", st.Hits+st.Misses, lookups)
	}
	// Has must not bump recency: under a tight LRU bound, a key probed
	// only by Has is still the eviction victim.
	s2, err := Open(t.TempDir(), Options{MaxBytes: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put("victim-key", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // separate atimes
	if err := s2.Put("keeper-key", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if ok, err := s2.Has("victim-key"); err != nil || !ok {
		t.Fatalf("Has(victim-key) = %v, %v", ok, err)
	}
	if err := s2.Put("newest-key", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("victim-key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Has bumped recency: victim survived eviction (err=%v)", err)
	}
}

func TestBucketedLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("deadbeef", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "de", "deadbeef")); err != nil {
		t.Fatalf("artifact not at bucketed path: %v", err)
	}
}

func TestInvalidKeys(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "a", "UPPER", "has/slash", "../escape", "sp ace"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, err := s.Get(key); err == nil {
			t.Errorf("Get(%q) accepted an invalid key", key)
		}
	}
}

func TestPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("cafebabe", []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same dir must index the artifact lazily.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("cafebabe")
	if err != nil || string(got) != "persisted" {
		t.Fatalf("Get after reopen = %q, %v", got, err)
	}
}

func TestIgnoresTempAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A crashed writer's temp file and a foreign file in the root.
	if err := os.WriteFile(filepath.Join(dir, "ab", "tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("abcd", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("index picked up junk: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 30})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("0123456789") // 10 bytes each
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("key%d-aaaa", i), data); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key0 so key1 becomes the LRU, then overflow.
	if _, err := s.Get("key0-aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key3-aaaa", data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("key1-aaaa"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU key1 should be evicted, got %v", err)
	}
	for _, k := range []string{"key0-aaaa", "key2-aaaa", "key3-aaaa"} {
		if _, err := s.Get(k); err != nil {
			t.Errorf("%s should survive eviction: %v", k, err)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Bytes != 30 || st.Entries != 3 {
		t.Fatalf("unexpected stats after eviction: %+v", st)
	}
}

func TestEvictionNeverDropsJustPutKey(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Oversized artifact: still stored (the bound evicts others, not it).
	if err := s.Put("bigartifact", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("bigartifact"); err != nil {
		t.Fatalf("just-put artifact evicted: %v", err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d-%d-pad", w, i%10)
				val := strings.Repeat("x", 64)
				if err := s.Put(key, []byte(val)); err != nil {
					done <- err
					return
				}
				if got, err := s.Get(key); err == nil && string(got) != val {
					done <- fmt.Errorf("partial read %q", got)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPartialLifecycle(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := "abc123-c8-a1"
	if err := s.PutPartial(base, 0, []byte("x\n")); err == nil {
		t.Error("PutPartial with 0 lines should error")
	}
	if err := s.PutPartial(base, 2, []byte("l0\nl1\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPartial(base, 4, []byte("l0\nl1\nl2\nl3\n")); err != nil {
		t.Fatal(err)
	}
	// The newer checkpoint pruned the older one: at most one per base.
	if st := s.Stats(); st.Partials != 1 || st.PartialsDropped != 1 {
		t.Fatalf("after supersede: %+v", st)
	}
	data, lines, err := s.NewestPartial(base)
	if err != nil || lines != 4 || string(data) != "l0\nl1\nl2\nl3\n" {
		t.Fatalf("NewestPartial = %q, %d, %v", data, lines, err)
	}
	// Partials of other bases are invisible.
	if _, _, err := s.NewestPartial("otherbase"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("NewestPartial(otherbase) = %v, want ErrNotFound", err)
	}
	if err := s.DeletePartials(base); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.NewestPartial(base); !errors.Is(err, ErrNotFound) {
		t.Fatalf("NewestPartial after DeletePartials = %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Partials != 0 {
		t.Fatalf("partials survive DeletePartials: %+v", st)
	}
}

func TestNewestPartialDiscardsInvalid(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := "def456-c8-a1"
	if err := s.PutPartial(base, 2, []byte("l0\nl1\n")); err != nil {
		t.Fatal(err)
	}
	// A corrupt newer checkpoint: claims 4 lines, holds 3 and no trailing
	// newline. Written via Put directly so PutPartial's pruning is bypassed.
	if err := s.Put(PartialKey(base, 4), []byte("l0\nl1\nl2")); err != nil {
		t.Fatal(err)
	}
	data, lines, err := s.NewestPartial(base)
	if err != nil || lines != 2 || string(data) != "l0\nl1\n" {
		t.Fatalf("NewestPartial should fall back past the corrupt checkpoint: %q, %d, %v", data, lines, err)
	}
	if st := s.Stats(); st.PartialsDropped != 1 || st.Partials != 1 {
		t.Fatalf("corrupt checkpoint not dropped: %+v", st)
	}
}

func TestOpenGCsOrphanedAndSupersededPartials(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Base "aa...": final artifact exists alongside a leftover checkpoint
	// (crash between promotion and cleanup). Base "bb...": two checkpoints
	// (crash between a PutPartial's rename and its prune).
	if err := s.Put("aaorphan-c4-a1", []byte("l0\nl1\nl2\nl3\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(PartialKey("aaorphan-c4-a1", 2), []byte("l0\nl1\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(PartialKey("bbstale-c4-a1", 1), []byte("l0\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(PartialKey("bbstale-c4-a1", 3), []byte("l0\nl1\nl2\n")); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.NewestPartial("aaorphan-c4-a1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphaned checkpoint survived open GC: %v", err)
	}
	if _, lines, err := s2.NewestPartial("bbstale-c4-a1"); err != nil || lines != 3 {
		t.Fatalf("newest checkpoint should survive open GC: %d, %v", lines, err)
	}
	st := s2.Stats()
	if st.Partials != 1 || st.PartialsDropped != 2 {
		t.Fatalf("open GC stats: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "aa", PartialKey("aaorphan-c4-a1", 2))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphaned checkpoint file still on disk: %v", err)
	}
}

func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "ab", "tmp-stale1")
	fresh := filepath.Join(dir, "ab", "tmp-fresh1")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Has("zzprobe"); err != nil { // forces the lazy load + sweep
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TempSwept != 1 {
		t.Fatalf("TempSwept = %d, want 1 (%+v)", st.TempSwept, st)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived the sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file should be spared (a live writer may own it): %v", err)
	}
}

func TestRestartPreservesLRUOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("oldkey-aaa", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	// Backdate oldkey so a reopened index sees it as least recent even on
	// filesystems with coarse mtime resolution.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "ol", "oldkey-aaa"), old, old); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("newkey-aaa", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{MaxBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put("thirdkey-a", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("oldkey-aaa"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest key should be evicted first after restart, got %v", err)
	}
}

// TestNonCanonicalPartialIsNotACheckpoint pins "one partial per base": a
// file whose line count is not written the way PartialKey writes it (a
// leading zero) is not a checkpoint of that base, so PutPartial cannot
// leave it beside the canonical one.
func TestNonCanonicalPartialIsNotACheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := "abc123-c8-a1"
	if err := os.MkdirAll(filepath.Join(dir, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ab", base+partialSep+"02"), []byte("x0\nx1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutPartial(base, 2, []byte("l0\nl1\n")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Partials != 1 {
		t.Fatalf("%d checkpoints of one base after PutPartial, want 1: %+v", st.Partials, st)
	}
	data, lines, err := s.NewestPartial(base)
	if err != nil || lines != 2 || string(data) != "l0\nl1\n" {
		t.Fatalf("NewestPartial = %q, %d, %v; want the canonical checkpoint", data, lines, err)
	}
}

// FuzzPartialKey checks that parsePartialKey accepts exactly the keys
// PartialKey writes: every accepted key round-trips, and every key written
// for a valid base and a positive count parses back to its parts.
func FuzzPartialKey(f *testing.F) {
	for _, k := range []string{
		"abc123-c8-a1.part-2", "abc123-c8-a1.part-02", "abc123-c8-a1.part-+2",
		"abc123-c8-a1.part-0", "ab.part-3.part-2", ".part-1", "a.part-1",
		"abc.part-", "abc.part-99999999999999999999", "AB.part-1", "abc",
	} {
		f.Add(k, "ab", 1)
	}
	f.Add("", "abc123-c8-a1", 4)
	f.Add("", "x.part-7", 12)
	f.Fuzz(func(t *testing.T, key, b string, n int) {
		if base, lines, ok := parsePartialKey(key); ok {
			if !validKey(base) || lines < 1 || PartialKey(base, lines) != key {
				t.Fatalf("parsePartialKey(%q) = (%q, %d, true), which PartialKey does not write", key, base, lines)
			}
		}
		if !validKey(b) || n < 1 {
			return
		}
		k := PartialKey(b, n)
		if base, lines, ok := parsePartialKey(k); !ok || base != b || lines != n {
			t.Fatalf("parsePartialKey(PartialKey(%q, %d)) = (%q, %d, %v)", b, n, base, lines, ok)
		}
	})
}
