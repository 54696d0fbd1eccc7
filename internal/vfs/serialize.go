package vfs

import (
	"encoding/gob"
	"fmt"
	"io"
	"io/fs"
	"time"
)

// snapshotEntry is one serialized filesystem entry.
type snapshotEntry struct {
	Path    string
	IsDir   bool
	Mode    fs.FileMode
	ModTime time.Time
	Data    []byte
}

// Save serializes the whole filesystem to w. The format is stable within
// a repository version; it exists so CLI invocations can persist the
// experiment container between runs (fex.py keeps its state in a checked
// out working tree; we keep it in a state file).
//
// The tree is snapshotted under one read lock and encoded after it is
// released. File entries share each node's bytes, capped at the length
// they had at the snapshot: writers only ever replace a node's slice or
// append past its end, so the shared prefix never changes under the
// encoder.
func (f *FS) Save(w io.Writer) error {
	f.ops.Add(1)
	f.mu.RLock()
	var entries []snapshotEntry
	_ = walkNode("/", f.root, func(p string, c *node) error {
		e := snapshotEntry{Path: p, IsDir: c.isDir, Mode: c.mode, ModTime: c.modTime}
		if !c.isDir {
			e.Data = c.data[:len(c.data):len(c.data)]
		}
		entries = append(entries, e)
		return nil
	})
	f.mu.RUnlock()
	if err := gob.NewEncoder(w).Encode(entries); err != nil {
		return fmt.Errorf("vfs save: encode: %w", err)
	}
	return nil
}

// Load replaces the filesystem contents with a snapshot produced by Save.
// Each decoded file buffer becomes the file's contents without a copy.
func (f *FS) Load(r io.Reader) error {
	var entries []snapshotEntry
	if err := gob.NewDecoder(r).Decode(&entries); err != nil {
		return fmt.Errorf("vfs load: decode: %w", err)
	}
	if err := f.RemoveAll("/"); err != nil {
		return fmt.Errorf("vfs load: clear: %w", err)
	}
	for _, e := range entries {
		if e.IsDir {
			if err := f.MkdirAll(e.Path); err != nil {
				return fmt.Errorf("vfs load: %w", err)
			}
			continue
		}
		if err := f.writeOwned(e.Path, e.Data, e.Mode); err != nil {
			return fmt.Errorf("vfs load: %w", err)
		}
	}
	return nil
}
