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
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := "abc123-c8-a1"
	// The write-time check: data must be exactly `lines` complete lines.
	for _, bad := range []struct {
		lines int
		data  string
	}{{0, "x\n"}, {1, "l0\nl1\n"}, {3, "l0\nl1\n"}, {2, "l0\nl1"}, {1, ""}} {
		if err := s.PutPartial(base, bad.lines, []byte(bad.data)); err == nil {
			t.Errorf("PutPartial(%d lines, %q) should error", bad.lines, bad.data)
		}
	}
	if err := s.PutPartial("a", 1, []byte("x\n")); err == nil {
		t.Error("PutPartial with an invalid base should error")
	}
	if st := s.Stats(); st.Partials != 0 || st.Puts != 0 {
		t.Fatalf("rejected checkpoints were stored: %+v", st)
	}
	if err := s.PutPartial(base, 2, []byte("l0\nl1\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPartial(base, 4, []byte("l0\nl1\nl2\nl3\n")); err != nil {
		t.Fatal(err)
	}
	// The newer checkpoint replaced the older one under the same key.
	if st := s.Stats(); st.Partials != 1 || st.PartialsDropped != 0 {
		t.Fatalf("after replace: %+v", st)
	}
	data, lines, err := s.Partial(base)
	if err != nil || lines != 4 || string(data) != "l0\nl1\nl2\nl3\n" {
		t.Fatalf("Partial = %q, %d, %v", data, lines, err)
	}
	// Partials of other bases are invisible.
	if _, _, err := s.Partial("otherbase"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Partial(otherbase) = %v, want ErrNotFound", err)
	}
	// Storing the final artifact drops its checkpoint, on disk too.
	if err := s.Put(base, []byte("l0\nl1\nl2\nl3\nl4\n")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Partial(base); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Partial after Put = %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Partials != 0 || st.PartialsDropped != 1 || st.Entries != 1 {
		t.Fatalf("checkpoint survives Put of its base: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "ab", base+partialSuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint file still on disk: %v", err)
	}
}

// TestNewestPartialDiscardsInvalid: a checkpoint that is corrupt on disk
// or has vanished underneath the index is dropped on sight and reads as
// ErrNotFound, so the job regenerates instead of resuming from it.
func TestNewestPartialDiscardsInvalid(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := "def456-c8-a1"
	// A torn checkpoint with no trailing newline, written via Put directly
	// so PutPartial's write-time check is bypassed.
	if err := s.Put(base+partialSuffix, []byte("l0\nl1\nl2")); err != nil {
		t.Fatal(err)
	}
	if data, lines, err := s.Partial(base); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Partial of a corrupt checkpoint = %q, %d, %v; want ErrNotFound", data, lines, err)
	}
	if st := s.Stats(); st.PartialsDropped != 1 || st.Partials != 0 {
		t.Fatalf("corrupt checkpoint not dropped: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "de", base+partialSuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt checkpoint file still on disk: %v", err)
	}
	// A checkpoint deleted behind the store's back.
	if err := s.PutPartial(base, 2, []byte("l0\nl1\n")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "de", base+partialSuffix)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Partial(base); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Partial of a vanished checkpoint = %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.PartialsDropped != 2 || st.Partials != 0 || st.Bytes != 0 {
		t.Fatalf("vanished checkpoint not dropped: %+v", st)
	}
}

// TestOpenGCsOrphanedAndSupersededPartials: open removes a checkpoint
// whose final artifact exists (a crash between Put's rename and the
// checkpoint's removal), and a superseded checkpoint never survives to be
// collected, because each PutPartial replaces the last.
func TestOpenGCsOrphanedAndSupersededPartials(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Base "aa...": final artifact beside a leftover checkpoint, written
	// after it so Put does not drop it. Base "bb...": two checkpoints.
	if err := s.Put("aaorphan-c4-a1", []byte("l0\nl1\nl2\nl3\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPartial("aaorphan-c4-a1", 2, []byte("l0\nl1\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPartial("bbstale-c4-a1", 1, []byte("l0\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPartial("bbstale-c4-a1", 3, []byte("l0\nl1\nl2\n")); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Partial("aaorphan-c4-a1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphaned checkpoint survived open GC: %v", err)
	}
	if _, lines, err := s2.Partial("bbstale-c4-a1"); err != nil || lines != 3 {
		t.Fatalf("newest checkpoint should survive open GC: %d, %v", lines, err)
	}
	st := s2.Stats()
	if st.Partials != 1 || st.PartialsDropped != 1 || st.Entries != 2 {
		t.Fatalf("open GC stats: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "aa", "aaorphan-c4-a1"+partialSuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphaned checkpoint file still on disk: %v", err)
	}
}

// TestPartialsCountMatchesDisk: Stats().Partials is kept by the index
// writers rather than counted on demand, so every path that adds or
// removes a checkpoint must keep it equal to the .part files on disk —
// including LRU eviction, which removes checkpoints like any other entry.
func TestPartialsCountMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	onDisk := func() int {
		n := 0
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), partialSuffix) {
				n++
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	check := func(s *Store, step string, want int) {
		t.Helper()
		if got, disk := s.Stats().Partials, onDisk(); got != disk || disk != want {
			t.Fatalf("after %s: Stats().Partials = %d, .part files on disk = %d, want %d", step, got, disk, want)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{MaxBytes: 64})
	must(err)
	must(s.PutPartial("aalive-c4-a1", 1, []byte("l0\n")))
	check(s, "PutPartial", 1)
	must(s.PutPartial("aalive-c4-a1", 2, []byte("l0\nl1\n")))
	check(s, "replacing PutPartial", 1)
	must(s.Put("aalive-c4-a1", []byte("l0\nl1\nl2\nl3\n")))
	check(s, "Put of the base", 0)

	must(s.PutPartial("bbtorn-c4-a1", 1, []byte("l0\n")))
	must(os.WriteFile(filepath.Join(dir, "bb", "bbtorn-c4-a1"+partialSuffix), []byte("l0\nl1"), 0o644))
	if _, _, err := s.Partial("bbtorn-c4-a1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Partial of a torn checkpoint = %v, want ErrNotFound", err)
	}
	check(s, "corrupt-checkpoint drop", 0)

	// An orphan (its base is stored) beside a live checkpoint.
	must(s.Put("ccorphan-c4-a1", []byte("l0\nl1\n")))
	must(s.PutPartial("ccorphan-c4-a1", 1, []byte("l0\n")))
	must(s.PutPartial("ddlive-c4-a1", 1, []byte("l0\n")))
	check(s, "two PutPartials", 2)
	s, err = Open(dir, Options{MaxBytes: 64})
	must(err)
	if _, err := s.Has("eemissing"); err != nil {
		t.Fatal(err) // the first operation loads the index and GCs the orphan
	}
	check(s, "open-time orphan GC", 1)

	// A Put that fills the bound evicts every other entry, the live
	// checkpoint with them.
	must(s.Put("ffbig-c1-a1", make([]byte, 64)))
	if st := s.Stats(); st.Evictions == 0 || st.Entries != 1 {
		t.Fatalf("the big Put should have evicted everything else: %+v", st)
	}
	check(s, "LRU eviction of a checkpoint", 0)
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

// TestNonCanonicalPartialIsNotACheckpoint: only <base>.part is a
// checkpoint of base. A file in the older <base>.part-<lines> form is an
// ordinary entry: it is never resumed from, never dropped by Put of the
// base, and left to the LRU like any artifact nobody requests.
func TestNonCanonicalPartialIsNotACheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := "abc123-c8-a1"
	if err := os.MkdirAll(filepath.Join(dir, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "ab", base+".part-2")
	if err := os.WriteFile(legacy, []byte("x0\nx1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Partial(base); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Partial read the legacy file: %v", err)
	}
	if err := s.PutPartial(base, 2, []byte("l0\nl1\n")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Partials != 1 || st.Entries != 2 {
		t.Fatalf("want one checkpoint beside one ordinary entry: %+v", st)
	}
	data, lines, err := s.Partial(base)
	if err != nil || lines != 2 || string(data) != "l0\nl1\n" {
		t.Fatalf("Partial = %q, %d, %v; want the canonical checkpoint", data, lines, err)
	}
	if err := s.Put(base, []byte("l0\nl1\nl2\n")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Partials != 0 || st.PartialsDropped != 1 || st.Entries != 2 {
		t.Fatalf("after Put: %+v", st)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Fatalf("legacy file should be left to the LRU: %v", err)
	}
}

// FuzzPartialKey checks the checkpoint namespace: PutPartial accepts
// exactly a valid base with data of exactly `lines` complete lines, stores
// it under <base>.part in the base's bucket, Partial reads the same bytes
// and line count back, and Put of the base drops the checkpoint.
func FuzzPartialKey(f *testing.F) {
	for _, c := range []struct {
		base, data string
		lines      int
	}{
		{"abc123-c8-a1", "l0\nl1\n", 2}, {"abc123-c8-a1", "l0\nl1\n", 1},
		{"abc123-c8-a1", "l0\nl1", 2}, {"abc123-c8-a1", "", 0},
		{"abc123-c8-a1", "\n", 1}, {"ab", "x\n", 1}, {"a", "x\n", 1},
		{"AB", "x\n", 1}, {"ab/../cd", "x\n", 1}, {"abc.part", "x\ny\n", 2},
		{"abc123-c8-a1.part-2", "x\n", 1}, {"abc", "x\n\n\n", 3}, {"abc", "x\n", -1},
	} {
		f.Add(c.base, c.data, c.lines)
	}
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, base, data string, lines int) {
		err := s.PutPartial(base, lines, []byte(data))
		valid := validKey(base) && lines > 0 && strings.HasSuffix(data, "\n") &&
			strings.Count(data, "\n") == lines
		if (err == nil) != valid {
			t.Fatalf("PutPartial(%q, %d, %q) = %v, want accepted=%v", base, lines, data, err, valid)
		}
		if !valid {
			return
		}
		if _, err := os.Stat(filepath.Join(dir, base[:2], base+partialSuffix)); err != nil {
			t.Fatalf("checkpoint of %q not at <bucket>/<base>.part: %v", base, err)
		}
		got, n, err := s.Partial(base)
		if err != nil || n != lines || string(got) != data {
			t.Fatalf("Partial(%q) = %q, %d, %v; want %q, %d", base, got, n, err, data, lines)
		}
		if err := s.Put(base, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Partial(base); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Partial(%q) after Put = %v, want ErrNotFound", base, err)
		}
	})
}
