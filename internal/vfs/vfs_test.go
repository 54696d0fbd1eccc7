package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestWriteReadFile(t *testing.T) {
	fs := New()
	want := []byte("hello world")
	if err := fs.WriteFile("/a/b/c.txt", want, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fs.ReadFile("/a/b/c.txt")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestWriteFileCreatesParents(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/x/y/z/file", []byte("data"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	for _, dir := range []string{"/x", "/x/y", "/x/y/z"} {
		if !fs.IsDir(dir) {
			t.Errorf("expected directory %s", dir)
		}
	}
}

func TestReadMissingFile(t *testing.T) {
	fs := New()
	_, err := fs.ReadFile("/nope")
	if !errors.Is(err, ErrNotExist) {
		t.Errorf("got %v, want ErrNotExist", err)
	}
}

func TestReadDirectoryFails(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/dir"); !errors.Is(err, ErrIsDir) {
		t.Errorf("got %v, want ErrIsDir", err)
	}
}

func TestWriteOverDirectoryFails(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/dir", []byte("x"), 0o644); !errors.Is(err, ErrIsDir) {
		t.Errorf("got %v, want ErrIsDir", err)
	}
}

func TestMkdirOverFileFails(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/f/sub"); !errors.Is(err, ErrNotDir) {
		t.Errorf("got %v, want ErrNotDir", err)
	}
}

func TestWriteFileCopiesInput(t *testing.T) {
	fs := New()
	data := []byte("mutable")
	if err := fs.WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'm' {
		t.Error("stored data aliases caller's buffer")
	}
}

func TestStat(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/f.txt", []byte("12345"), 0o600); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/a/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if st.IsDir || st.Size != 5 || st.Name != "f.txt" {
		t.Errorf("unexpected stat %+v", st)
	}
}

func TestExists(t *testing.T) {
	fs := New()
	if fs.Exists("/nope") {
		t.Error("missing path reported as existing")
	}
	if err := fs.WriteFile("/yes", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/yes") {
		t.Error("existing path reported as missing")
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := New()
	for _, name := range []string{"c", "a", "b"} {
		if err := fs.WriteFile("/d/"+name, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := fs.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries", len(entries))
	}
	for i, want := range []string{"a", "b", "c"} {
		if entries[i].Name != want {
			t.Errorf("entry %d = %q, want %q", i, entries[i].Name, want)
		}
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/f") {
		t.Error("file still exists after Remove")
	}
}

func TestRemoveNonEmptyDirFails(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/d/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("got %v, want ErrNotEmpty", err)
	}
}

func TestRemoveAll(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/d/sub/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d") {
		t.Error("tree still exists after RemoveAll")
	}
	// Removing a missing path is not an error.
	if err := fs.RemoveAll("/missing"); err != nil {
		t.Errorf("RemoveAll missing: %v", err)
	}
}

func TestWalkOrder(t *testing.T) {
	fs := New()
	paths := []string{"/a/1", "/a/2", "/b/x/y", "/c"}
	for _, p := range paths {
		if err := fs.WriteFile(p, []byte(p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	err := fs.Walk("/", func(st Stat) error {
		visited = append(visited, st.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a", "/a/1", "/a/2", "/b", "/b/x", "/b/x/y", "/c"}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Errorf("visit %d = %s, want %s", i, visited[i], want[i])
		}
	}
}

func TestWalkStopsOnError(t *testing.T) {
	fs := New()
	for i := 0; i < 10; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%d", i), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	sentinel := errors.New("stop")
	err := fs.Walk("/", func(Stat) error {
		count++
		if count == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("got %v, want sentinel", err)
	}
	if count != 3 {
		t.Errorf("visited %d entries, want 3", count)
	}
}

func TestGlob(t *testing.T) {
	fs := New()
	for _, p := range []string{"/src/a.c", "/src/b.c", "/src/c.h", "/src/sub/d.c"} {
		if err := fs.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := fs.Glob("/src", "*.c")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Errorf("got %d matches %v, want 3", len(matches), matches)
	}
}

func TestTotalSize(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a", make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/b", make([]byte, 50), 0o644); err != nil {
		t.Fatal(err)
	}
	total, err := fs.TotalSize("/")
	if err != nil {
		t.Fatal(err)
	}
	if total != 150 {
		t.Errorf("total = %d, want 150", total)
	}
}

func TestCloneIndependence(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}
	clone := fs.Clone()
	if err := clone.WriteFile("/f", []byte("modified"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Error("mutating clone changed the original")
	}
}

func TestCopyTree(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/src/a/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.CopyTree("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/dst/a/f")
	if err != nil {
		t.Fatalf("copied file missing: %v", err)
	}
	if string(got) != "x" {
		t.Errorf("copied content %q", got)
	}
	// Mutating the copy must not affect the source.
	if err := fs.WriteFile("/dst/a/f", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, _ := fs.ReadFile("/src/a/f")
	if string(src) != "x" {
		t.Error("copy aliases source")
	}
}

func TestDigestDeterministic(t *testing.T) {
	build := func() *FS {
		fs := New()
		_ = fs.WriteFile("/a/f1", []byte("one"), 0o644)
		_ = fs.WriteFile("/b/f2", []byte("two"), 0o644)
		return fs
	}
	d1, err := build().Digest("/")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := build().Digest("/")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("identical trees produced different digests")
	}
}

func TestDigestSensitivity(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("one"), 0o644)
	d1, _ := fs.Digest("/")
	_ = fs.WriteFile("/f", []byte("two"), 0o644)
	d2, _ := fs.Digest("/")
	if d1 == d2 {
		t.Error("content change did not change digest")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/a/b/file1", []byte("data1"), 0o644)
	_ = fs.WriteFile("/c/file2", []byte("data2"), 0o755)
	_ = fs.MkdirAll("/empty/dir")
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored := New()
	if err := restored.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	d1, _ := fs.Digest("/")
	d2, _ := restored.Digest("/")
	if d1 != d2 {
		t.Error("roundtrip changed tree digest")
	}
	if !restored.IsDir("/empty/dir") {
		t.Error("empty directory lost in roundtrip")
	}
}

func TestLoadGarbageFails(t *testing.T) {
	fs := New()
	if err := fs.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("expected error loading garbage")
	}
}

func TestPathNormalization(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("a/b", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Relative and messy paths resolve against root.
	for _, p := range []string{"/a/b", "a/b", "/a/./b", "/a//b"} {
		if _, err := fs.ReadFile(p); err != nil {
			t.Errorf("ReadFile(%q): %v", p, err)
		}
	}
}

func TestQuickWriteReadRoundtrip(t *testing.T) {
	fs := New()
	i := 0
	prop := func(data []byte) bool {
		i++
		p := fmt.Sprintf("/q/%d", i)
		if err := fs.WriteFile(p, data, 0o644); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickDigestStableUnderClone(t *testing.T) {
	fs := New()
	n := 0
	prop := func(data []byte) bool {
		n++
		_ = fs.WriteFile(fmt.Sprintf("/p/%d", n), data, 0o644)
		d1, err1 := fs.Digest("/")
		d2, err2 := fs.Clone().Digest("/")
		return err1 == nil && err2 == nil && d1 == d2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRenameFile(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/src.txt", []byte("payload"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b/dst.txt", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a/src.txt", "/b/dst.txt"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if fs.Exists("/a/src.txt") {
		t.Error("source survived rename")
	}
	got, err := fs.ReadFile("/b/dst.txt")
	if err != nil || string(got) != "payload" {
		t.Errorf("destination = %q, %v; want replaced content", got, err)
	}
	st, err := fs.Stat("/b/dst.txt")
	if err != nil || st.Name != "dst.txt" || st.Mode != 0o600 {
		t.Errorf("stat after rename: %+v, %v", st, err)
	}
}

func TestRenameDirectory(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/d/f.txt", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a/d", "/b/moved"); err != nil {
		t.Fatalf("Rename dir: %v", err)
	}
	if _, err := fs.ReadFile("/b/moved/f.txt"); err != nil {
		t.Errorf("moved child unreadable: %v", err)
	}
	if fs.Exists("/a/d") {
		t.Error("source dir survived rename")
	}
}

func TestRenameErrors(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/f.txt", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/missing", "/a/g.txt"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing source: %v", err)
	}
	if err := fs.Rename("/a/f.txt", "/nodir/g.txt"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing destination parent: %v", err)
	}
	if err := fs.Rename("/a/f.txt", "/dir"); !errors.Is(err, ErrIsDir) {
		t.Errorf("rename onto directory: %v", err)
	}
	if err := fs.Rename("/dir", "/a/f.txt"); !errors.Is(err, ErrNotDir) {
		t.Errorf("rename directory onto file: %v", err)
	}
	if got, err := fs.ReadFile("/a/f.txt"); err != nil || string(got) != "x" {
		t.Errorf("failed renames must not move the source: %q, %v", got, err)
	}
}

// TestRenameIntoOwnSubtree pins the cycle guard: moving a directory into
// its own subtree must fail (os.Rename gives EINVAL) instead of silently
// detaching the subtree into an unreachable cycle.
func TestRenameIntoOwnSubtree(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/b/f.txt", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a", "/a/b/c"); err == nil {
		t.Fatal("rename into own subtree accepted")
	}
	if _, err := fs.ReadFile("/a/b/f.txt"); err != nil {
		t.Errorf("subtree lost after rejected rename: %v", err)
	}
}

// TestRenameOntoSelf pins the no-op: renaming any entry onto itself
// succeeds and changes nothing, like os.Rename.
func TestRenameOntoSelf(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/d/f.txt", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d/f.txt", "/d/f.txt"); err != nil {
		t.Errorf("file self-rename: %v", err)
	}
	if err := fs.Rename("/d", "/d"); err != nil {
		t.Errorf("directory self-rename: %v", err)
	}
	if got, err := fs.ReadFile("/d/f.txt"); err != nil || string(got) != "x" {
		t.Errorf("self-rename perturbed the tree: %q, %v", got, err)
	}
}

// TestAppend pins the journal primitive: appends accumulate in order, each
// returning the offset its bytes landed at, the file springs into existence
// (parents included) on first append, and appending to a directory fails.
func TestAppend(t *testing.T) {
	fs := New()
	off, err := fs.Append("/j/log", []byte("one\n"))
	if err != nil || off != 0 {
		t.Fatalf("first append: off=%d err=%v", off, err)
	}
	off, err = fs.Append("/j/log", []byte("two\n"))
	if err != nil || off != 4 {
		t.Fatalf("second append: off=%d err=%v", off, err)
	}
	if got, err := fs.ReadFile("/j/log"); err != nil || string(got) != "one\ntwo\n" {
		t.Fatalf("appended content: %q, %v", got, err)
	}
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Append("/d", []byte("x")); !errors.Is(err, ErrIsDir) {
		t.Errorf("append to directory: %v", err)
	}
}

// TestAppendConcurrent proves appends are atomic: N goroutines each append
// a distinct line; every line must appear exactly once, unsplit, and the
// returned offsets must address each goroutine's own line.
func TestAppendConcurrent(t *testing.T) {
	fs := New()
	const n = 32
	var wg sync.WaitGroup
	offs := make([]int64, n)
	lines := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lines[i] = fmt.Sprintf("line-%02d\n", i)
			off, err := fs.Append("/log", []byte(lines[i]))
			if err != nil {
				t.Errorf("append %d: %v", i, err)
			}
			offs[i] = off
		}(i)
	}
	wg.Wait()
	data, err := fs.ReadFile("/log")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		end := offs[i] + int64(len(lines[i]))
		if end > int64(len(data)) || string(data[offs[i]:end]) != lines[i] {
			t.Errorf("offset %d does not address line %d", offs[i], i)
		}
	}
}

// TestWriteFileExcl pins the O_EXCL primitive: the first creator wins, a
// second create of the same path fails with ErrExist, and parents are
// created as needed.
func TestWriteFileExcl(t *testing.T) {
	fs := New()
	if err := fs.WriteFileExcl("/locks/l", []byte("a"), 0o644); err != nil {
		t.Fatalf("first create: %v", err)
	}
	if err := fs.WriteFileExcl("/locks/l", []byte("b"), 0o644); !errors.Is(err, ErrExist) {
		t.Fatalf("second create: %v", err)
	}
	if got, _ := fs.ReadFile("/locks/l"); string(got) != "a" {
		t.Errorf("losing create overwrote the file: %q", got)
	}
	// Concurrent creators: exactly one must win.
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fs.WriteFileExcl("/locks/race", nil, 0o644) == nil {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Errorf("exclusive create won %d times, want 1", wins.Load())
	}
}

// TestOpsCounter pins the operation accounting the store ablation depends
// on: public calls increment the counter, and a Clone starts from zero.
func TestOpsCounter(t *testing.T) {
	fs := New()
	base := fs.Ops()
	if err := fs.WriteFile("/a/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/a/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Ops() <= base {
		t.Fatalf("ops did not advance: %d -> %d", base, fs.Ops())
	}
	if c := fs.Clone(); c.Ops() != 0 {
		t.Errorf("clone inherited the op counter: %d", c.Ops())
	}
}

// TestSaveUnderConcurrentWriters is the regression test for a Save that
// took the read lock twice (once in Walk, again per file): a writer queued
// between the two blocked the second RLock behind it and hung Save. One
// goroutine rewrites and appends files while Save runs 200 times; every
// save must finish before the deadline, and each image must load with the
// appended log holding only whole records.
func TestSaveUnderConcurrentWriters(t *testing.T) {
	fs := New()
	for i := 0; i < 50; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/d/f%02d", i), []byte("seed"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const record = "record-0123456789\n"
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := fs.WriteFile(fmt.Sprintf("/d/f%02d", i%50), []byte(fmt.Sprint(i)), 0o644); err != nil {
				t.Error(err)
				return
			}
			if _, err := fs.Append("/log", []byte(record)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	saved := make(chan error, 1)
	var images [][]byte
	go func() {
		for i := 0; i < 200; i++ {
			var buf bytes.Buffer
			if err := fs.Save(&buf); err != nil {
				saved <- err
				return
			}
			if i%20 == 0 {
				images = append(images, buf.Bytes())
			}
		}
		saved <- nil
	}()
	select {
	case err := <-saved:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Save deadlocked against a concurrent writer")
	}
	close(stop)
	<-writerDone
	for i, img := range images {
		restored := New()
		if err := restored.Load(bytes.NewReader(img)); err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		data, err := restored.ReadFile("/log")
		if errors.Is(err, ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if len(data)%len(record) != 0 || string(data) != strings.Repeat(record, len(data)/len(record)) {
			t.Fatalf("image %d: log is not whole records (%d bytes)", i, len(data))
		}
	}
}

// TestLoadKeepsDecodedBuffers pins that Load, which keeps each decoded
// buffer as a file's contents, leaves files independent: appending to one
// loaded file changes no other.
func TestLoadKeepsDecodedBuffers(t *testing.T) {
	src := New()
	_ = src.WriteFile("/a", []byte("alpha"), 0o644)
	_ = src.WriteFile("/b", []byte("beta"), 0o644)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New()
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Append("/a", []byte("-more")); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[string]string{"/a": "alpha-more", "/b": "beta"} {
		if got, err := dst.ReadFile(p); err != nil || string(got) != want {
			t.Errorf("%s = %q, %v; want %q", p, got, err, want)
		}
	}
}
