package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// storeVersion is bumped whenever the on-disk entry framing changes;
// entries written by other versions read as misses.
const storeVersion = 1

// Store is a content-addressed result store: one JSON file per job,
// named by the SHA-256 of the job's full signature. Entries embed the
// signature, so a (vanishingly unlikely) hash collision or a hand-edited
// file reads as a miss rather than a wrong result. Writes go through a
// temp file + rename, so concurrent writers and readers — including
// separate processes sharing one cache directory — never observe a
// partial entry. Corrupt or stale files are quarantined (moved to
// <dir>/quarantine/ for post-mortem inspection) and recomputed.
type Store struct {
	dir string
}

// Status classifies a store lookup.
type Status int

const (
	// StatusMiss: no entry exists for the signature.
	StatusMiss Status = iota
	// StatusHit: a valid entry was found and returned.
	StatusHit
	// StatusCorrupt: an entry existed but was unreadable, torn, version-
	// mismatched, signature-mismatched, or without a result; it has been
	// quarantined so it
	// cannot shadow the recomputed result, and the damaged bytes remain
	// inspectable under QuarantineDir.
	StatusCorrupt
)

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// key returns the content address (SHA-256 hex) of a signature.
func key(sig string) string {
	h := sha256.Sum256([]byte(sig))
	return hex.EncodeToString(h[:])
}

func (s *Store) path(sig string) string {
	return filepath.Join(s.dir, key(sig)+".json")
}

// entry is the on-disk framing of one result.
type entry struct {
	Version int             `json:"v"`
	Sig     string          `json:"sig"`
	Result  json.RawMessage `json:"result"`
}

// Lookup returns the raw JSON payload stored for sig and the lookup's
// classification. A damaged entry — unreadable, torn JSON, version or
// signature mismatch, empty or null payload — is quarantined as a side
// effect and reported as StatusCorrupt, so callers can count and
// recompute it exactly once instead of silently re-missing on every run.
// (A null payload would decode as a zero result without an error.)
func (s *Store) Lookup(sig string) (raw []byte, st Status) {
	data, err := os.ReadFile(s.path(sig))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, StatusMiss
		}
		s.quarantine(sig)
		return nil, StatusCorrupt
	}
	var e entry
	if json.Unmarshal(data, &e) != nil || e.Version != storeVersion || e.Sig != sig || len(e.Result) == 0 || string(e.Result) == "null" {
		s.quarantine(sig)
		return nil, StatusCorrupt
	}
	return e.Result, StatusHit
}

// QuarantineDir returns the directory damaged entries are moved to. It
// lives inside the store root; entry lookups address files by exact
// content hash, so the extra directory never collides with entries.
func (s *Store) QuarantineDir() string {
	return filepath.Join(s.dir, "quarantine")
}

// quarantine moves sig's entry aside into QuarantineDir, falling back to
// removal when the move fails (either way it stops shadowing the next
// Put).
func (s *Store) quarantine(sig string) {
	path := s.path(sig)
	if err := os.MkdirAll(s.QuarantineDir(), 0o755); err == nil {
		if os.Rename(path, filepath.Join(s.QuarantineDir(), filepath.Base(path))) == nil {
			return
		}
	}
	os.Remove(path)
}

// Put stores v (JSON-encoded) under sig, atomically replacing any
// existing entry.
func (s *Store) Put(sig string, v any) error {
	res, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: encode result: %w", err)
	}
	data, err := json.Marshal(entry{Version: storeVersion, Sig: sig, Result: res})
	if err != nil {
		return fmt.Errorf("runner: encode entry: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("runner: store put: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("runner: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runner: store put: %w", err)
	}
	if err := os.Rename(tmpName, s.path(sig)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runner: store put: %w", err)
	}
	return nil
}
