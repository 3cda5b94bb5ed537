// Package checkpoint persists the completed units of a long-running sweep
// to a JSON file so an interrupted run can resume without re-acquiring
// Monte-Carlo data. The store is deliberately generic: stages are named
// slots holding arbitrary JSON states (each species' bin ledger stores its
// plan's seeds and budget with whichever bins have completed), and the
// whole file is stamped with a fingerprint of the run configuration so a
// checkpoint can never silently resume under different physics.
//
// Writes are atomic (temp file + rename in the same directory), so a crash
// mid-save leaves the previous consistent checkpoint on disk.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// file is the on-disk layout.
type file struct {
	Version    int                        `json:"version"`
	ConfigHash string                     `json:"config_hash"`
	Stages     map[string]json.RawMessage `json:"stages"`
}

const version = 1

// Store is a concurrency-safe on-disk checkpoint. All methods are nil-safe:
// a nil *Store loads nothing and saves nowhere, so instrumented code needs
// no "is checkpointing on?" branches.
type Store struct {
	mu   sync.Mutex
	path string
	data file
}

// Create starts a fresh checkpoint at path for the given config hash,
// overwriting any existing file there.
func Create(path, configHash string) (*Store, error) {
	s := &Store{path: path, data: file{
		Version:    version,
		ConfigHash: configHash,
		Stages:     map[string]json.RawMessage{},
	}}
	if err := s.flushLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Resume opens an existing checkpoint at path, rejecting a missing file, a
// malformed file, or one whose config hash differs from configHash.
func Resume(path, configHash string) (*Store, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: resume: %w", err)
	}
	var f file
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, &CorruptError{Path: path, Cause: err}
	}
	if f.Version != version {
		return nil, &CorruptError{Path: path,
			Cause: fmt.Errorf("unsupported version %d (want %d)", f.Version, version)}
	}
	if f.ConfigHash != configHash {
		return nil, fmt.Errorf("%w: file %s was written for config %.12s…, this run is %.12s…",
			ErrConfigMismatch, path, f.ConfigHash, configHash)
	}
	if f.Stages == nil {
		f.Stages = map[string]json.RawMessage{}
	}
	return &Store{path: path, data: f}, nil
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
	raw, ok := s.data.Stages[stage]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, &CorruptError{Path: s.path, Stage: stage, Cause: err}
	}
	return true, nil
}

// Save marshals v as the named stage's state and atomically rewrites the
// file. Nil store: no-op.
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
	s.data.Stages[stage] = raw
	return s.flushLocked()
}

// Stages returns the names of the stages currently held (nil store: none).
func (s *Store) Stages() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data.Stages))
	for k := range s.data.Stages {
		out = append(out, k)
	}
	return out
}

// flushLocked writes the whole file atomically; callers hold s.mu (or have
// exclusive access during construction).
func (s *Store) flushLocked() error {
	b, err := json.MarshalIndent(s.data, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
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
	return nil
}
