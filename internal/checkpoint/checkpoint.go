// Package checkpoint persists the completed units of a long-running sweep
// to a JSON file so an interrupted run can resume without re-acquiring
// Monte-Carlo data. The store is deliberately generic: stages are named
// slots holding arbitrary JSON states (each species' bin ledger stores its
// plan's seeds and budget with whichever bins have completed), and the
// whole file is stamped with a fingerprint of the run configuration so a
// checkpoint can never silently resume under different physics.
//
// The file is an append-only log of JSON lines. The first line is a header,
// {"version":2,"config_hash":"…"}; each Save appends one record,
// {"stage":"…","state":…}, and the last record for a stage wins. A save
// costs one small write to the page cache, not a new file. A crash
// mid-append can tear only the final line, and Resume drops a final line
// that lacks its newline. Create, and the first Save after a
// Resume, write the whole file compacted to one record per stage through a
// temp file and a rename in the same directory, so they replace it
// atomically; Save compacts the same way once the bytes appended since the
// last rewrite pass max(compactMinBytes, 2× the live records). A file whose
// first line is not a version-2 header, such as the single JSON document
// of version 1, is a *CorruptError.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrConfigMismatch reports a resume attempt against a checkpoint written
// under a different run configuration.
var ErrConfigMismatch = errors.New("checkpoint: config fingerprint mismatch")

// CorruptError reports a checkpoint file that exists but cannot be decoded —
// truncated by a dying disk, hand-edited, or not a checkpoint at all. It is
// typed so callers can distinguish "file is damaged, delete it and restart"
// from transient I/O failures.
type CorruptError struct {
	// Path is the checkpoint file that failed to decode.
	Path string
	// Stage is the stage slot that failed, or "" for file-level corruption.
	Stage string
	// Cause is the underlying decode error.
	Cause error
}

func (e *CorruptError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("checkpoint: corrupt stage %q in %s: %v", e.Stage, e.Path, e.Cause)
	}
	return fmt.Sprintf("checkpoint: corrupt file %s: %v", e.Path, e.Cause)
}

func (e *CorruptError) Unwrap() error { return e.Cause }

// Fingerprint returns a stable hex digest of v's JSON encoding — the
// config identity stamped into checkpoint files.
func Fingerprint(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("checkpoint: fingerprint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// The log's header line and records.
type (
	header struct {
		Version    int    `json:"version"`
		ConfigHash string `json:"config_hash"`
	}
	record struct {
		Stage string          `json:"stage"`
		State json.RawMessage `json:"state"`
	}
)

const (
	version = 2
	// compactMinBytes is the least a log grows by appends before Save
	// rewrites it compacted; above it the bound is twice the live records,
	// so appends cost amortized constant work per byte. A serve-sized job
	// appends about 11 KB and never reaches it.
	compactMinBytes = 1 << 20
	// TempPattern is the os.CreateTemp pattern of the temp files a
	// whole-file write renames into place. A crash between the two leaves
	// one behind in the checkpoint's directory, which the directory's
	// owner may delete before it runs anything.
	TempPattern = ".checkpoint-*"
)

// Store is a concurrency-safe on-disk checkpoint. All methods are nil-safe:
// a nil *Store loads nothing and saves nowhere, so instrumented code needs
// no "is checkpointing on?" branches. It holds no open file, so it needs
// no Close.
type Store struct {
	mu     sync.Mutex
	path   string
	hash   string
	stages map[string]json.RawMessage
	// rewrite makes the next Save write the whole file: the file on disk
	// may end in a torn line (after Resume), or a failed append may have
	// left part of a line.
	rewrite bool
	// appended counts the bytes appended since the file was last written
	// whole; live is the stage names' and states' bytes held now.
	appended, live int
}

// Create starts a fresh checkpoint at path for the given config hash,
// atomically replacing any existing file there.
func Create(path, configHash string) (*Store, error) {
	s := &Store{path: path, hash: configHash, stages: map[string]json.RawMessage{}}
	if err := s.rewriteLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Resume opens an existing checkpoint at path, rejecting a missing file, a
// malformed file, or one whose config hash differs from configHash. A torn
// final record is dropped; the store's first Save rewrites the file
// compacted before it appends anything.
func Resume(path, configHash string) (*Store, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: resume: %w", err)
	}
	hash, stages, err := decode(b)
	if err != nil {
		return nil, &CorruptError{Path: path, Cause: err}
	}
	if hash != configHash {
		return nil, fmt.Errorf("%w: file %s was written for config %.12s…, this run is %.12s…",
			ErrConfigMismatch, path, hash, configHash)
	}
	s := &Store{path: path, hash: hash, stages: stages, rewrite: true}
	for stage, raw := range stages {
		s.live += len(stage) + len(raw)
	}
	return s, nil
}

// decode reads a log, returning the config hash and every stage's latest
// state.
func decode(b []byte) (string, map[string]json.RawMessage, error) {
	line, rest, complete := bytes.Cut(b, []byte("\n"))
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return "", nil, fmt.Errorf("first line is not a version-%d header: %w", version, err)
	}
	if h.Version != version {
		return "", nil, fmt.Errorf("unsupported version %d (want %d)", h.Version, version)
	}
	if !complete {
		return "", nil, errors.New("torn header: no newline after it")
	}
	stages := map[string]json.RawMessage{}
	for n := 2; len(rest) > 0; n++ {
		line, rest, complete = bytes.Cut(rest, []byte("\n"))
		if !complete {
			break // a torn final record: the crash came mid-append
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return "", nil, fmt.Errorf("line %d: %w", n, err)
		}
		if r.State == nil {
			return "", nil, fmt.Errorf("line %d: record without a state", n)
		}
		stages[r.Stage] = r.State
	}
	return h.ConfigHash, stages, nil
}

// Path returns the backing file path ("" on a nil store).
func (s *Store) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// Load unmarshals the named stage's state into v, reporting whether the
// stage was present. Nil store: (false, nil).
func (s *Store) Load(stage string, v any) (bool, error) {
	if s == nil {
		return false, nil
	}
	s.mu.Lock()
	raw, ok := s.stages[stage]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, &CorruptError{Path: s.path, Stage: stage, Cause: err}
	}
	return true, nil
}

// Save marshals v as the named stage's state and appends it to the file
// as one record, which reaches the page cache before Save returns (there
// is no fsync). A failed append keeps the state in memory and makes the
// next Save rewrite the whole file. Nil store: no-op.
func (s *Store) Save(stage string, v any) error {
	if s == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: stage %q: %w", stage, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.stages[stage]; ok {
		s.live -= len(stage) + len(old)
	}
	s.stages[stage] = raw
	s.live += len(stage) + len(raw)
	line := appendRecord(nil, stage, raw)
	if s.rewrite || s.appended+len(line) > max(compactMinBytes, 2*s.live) {
		return s.rewriteLocked()
	}
	if err := appendFile(s.path, line); err != nil {
		s.rewrite = true
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	s.appended += len(line)
	return nil
}

// Stages returns the names of the stages currently held (nil store: none).
func (s *Store) Stages() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.stages))
	for k := range s.stages {
		out = append(out, k)
	}
	return out
}

// appendRecord appends stage's log line, newline included, to dst. raw is
// compact JSON, so it holds no newline.
func appendRecord(dst []byte, stage string, raw json.RawMessage) []byte {
	name, _ := json.Marshal(stage) // a string always encodes
	dst = append(dst, `{"stage":`...)
	dst = append(dst, name...)
	dst = append(dst, `,"state":`...)
	dst = append(dst, raw...)
	return append(dst, "}\n"...)
}

// appendFile appends b to the existing file at path with one write.
func appendFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rewriteLocked writes the whole log compacted — the header, then one
// record per stage in name order — to a temp file and renames it over the
// path; callers hold s.mu (or have exclusive access during construction).
func (s *Store) rewriteLocked() error {
	b, _ := json.Marshal(header{Version: version, ConfigHash: s.hash}) // an int and a string always encode
	b = append(b, '\n')
	names := make([]string, 0, len(s.stages))
	for k := range s.stages {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		b = appendRecord(b, k, s.stages[k])
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, TempPattern)
	if err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := os.Rename(tmpName, s.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	s.rewrite, s.appended = false, 0
	return nil
}
