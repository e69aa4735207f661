// Package docstore is a small document database standing in for the
// MongoDB instance H-BOLD uses to persist Schema Summaries and Cluster
// Schemas. Documents are JSON-serializable values organized in named
// collections keyed by a document id, with optional persistence to a
// directory of JSON files.
package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned when a document id is absent.
var ErrNotFound = errors.New("docstore: not found")

// DB is a set of named collections. It is safe for concurrent use.
type DB struct {
	mu    sync.RWMutex
	colls map[string]*Collection
	// dir is the persistence directory; empty means memory-only.
	dir string
}

// Open returns a DB persisted under dir. If dir is empty the DB is
// memory-only. Existing collections under dir are loaded eagerly.
func Open(dir string) (*DB, error) {
	db := &DB{colls: make(map[string]*Collection), dir: dir}
	if dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("docstore: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("docstore: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			name := strings.TrimSuffix(e.Name(), ".json")
			c := newCollection(name, db)
			if err := c.load(filepath.Join(dir, e.Name())); err != nil {
				return nil, err
			}
			db.colls[name] = c
		}
	}
	return db, nil
}

// MustOpenMem returns a memory-only DB (never fails).
func MustOpenMem() *DB {
	db, err := Open("")
	if err != nil {
		panic(err)
	}
	return db
}

// Collection returns the named collection, creating it if absent.
func (db *DB) Collection(name string) *Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.colls[name]
	if !ok {
		c = newCollection(name, db)
		db.colls[name] = c
	}
	return c
}

// Collections lists collection names, sorted.
func (db *DB) Collections() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.colls))
	for n := range db.colls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Flush persists every collection (no-op for memory-only DBs).
func (db *DB) Flush() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.dir == "" {
		return nil
	}
	for _, c := range db.colls {
		if err := c.flush(); err != nil {
			return err
		}
	}
	return nil
}

// Collection is an id → JSON document map.
type Collection struct {
	mu   sync.RWMutex
	name string
	db   *DB
	docs map[string]json.RawMessage
}

func newCollection(name string, db *DB) *Collection {
	return &Collection{name: name, db: db, docs: make(map[string]json.RawMessage)}
}

// Put stores doc (any JSON-marshalable value) under id, replacing any
// previous document.
func (c *Collection) Put(id string, doc any) error {
	raw, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("docstore: marshal %s/%s: %w", c.name, id, err)
	}
	c.mu.Lock()
	c.docs[id] = raw
	c.mu.Unlock()
	return nil
}

// Get unmarshals the document with the given id into out.
func (c *Collection) Get(id string, out any) error {
	c.mu.RLock()
	raw, ok := c.docs[id]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, c.name, id)
	}
	return json.Unmarshal(raw, out)
}

// Has reports whether a document exists.
func (c *Collection) Has(id string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.docs[id]
	return ok
}

// Delete removes a document; deleting a missing id is a no-op.
func (c *Collection) Delete(id string) {
	c.mu.Lock()
	delete(c.docs, id)
	c.mu.Unlock()
}

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// IDs returns all document ids, sorted.
func (c *Collection) IDs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, 0, len(c.docs))
	for id := range c.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Each calls fn with every (id, raw document), sorted by id; returning
// false stops early.
func (c *Collection) Each(fn func(id string, raw json.RawMessage) bool) {
	c.mu.RLock()
	ids := make([]string, 0, len(c.docs))
	for id := range c.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	snapshot := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		snapshot[i] = c.docs[id]
	}
	c.mu.RUnlock()
	for i, id := range ids {
		if !fn(id, snapshot[i]) {
			return
		}
	}
}

// Filter returns the ids of documents whose raw JSON satisfies pred.
func (c *Collection) Filter(pred func(raw json.RawMessage) bool) []string {
	var out []string
	c.Each(func(id string, raw json.RawMessage) bool {
		if pred(raw) {
			out = append(out, id)
		}
		return true
	})
	return out
}

// flush writes the collection atomically and durably: temp file, fsync,
// rename, then fsync of the directory — so a crash leaves either the
// old or the new file, never a torn or unlinked one.
func (c *Collection) flush() error {
	c.mu.RLock()
	data, err := json.MarshalIndent(c.docs, "", " ")
	c.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("docstore: flush %s: %w", c.name, err)
	}
	path := filepath.Join(c.db.dir, c.name+".json")
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("docstore: flush %s: %w", c.name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("docstore: flush %s: %w", c.name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("docstore: flush %s: %w", c.name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("docstore: flush %s: %w", c.name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("docstore: flush %s: %w", c.name, err)
	}
	// the rename itself must survive a crash: sync the directory entry
	d, err := os.Open(c.db.dir)
	if err != nil {
		return fmt.Errorf("docstore: flush %s: %w", c.name, err)
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("docstore: flush %s: %w", c.name, serr)
	}
	return nil
}

func (c *Collection) load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("docstore: load %s: %w", c.name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Unmarshal(data, &c.docs)
}
