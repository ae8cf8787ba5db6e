package watch

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"

	"ripple/internal/program"
	"ripple/internal/trace"
)

// stateMagic heads every .ptwatch checkpoint sidecar.
const stateMagic = "RPWATCH1\n"

var (
	// ErrStateStale reports a structurally valid checkpoint that does not
	// match the trace file it points at (the trace was rotated or
	// regenerated since the checkpoint was written). The caller starts
	// fresh.
	ErrStateStale = errors.New("watch: checkpoint does not match the trace")
	// ErrStateCorrupt reports a checkpoint file that fails its own
	// integrity checks (bad magic, bad trailer hash, undecodable body).
	// The caller treats it as absent and starts fresh.
	ErrStateCorrupt = errors.New("watch: corrupt checkpoint")
)

// State is everything a restarted watcher needs to continue exactly
// where it stopped: the tail pass's position mark, the trace-identity
// binding that detects rotation, and the analysis-side counters (window,
// epoch, hysteresis) whose replay determines the published plan
// sequence. Persisting all of it makes restart replay-equivalent: a
// watcher resumed from any checkpoint publishes the same revision tail,
// byte for byte, as one that never stopped.
type State struct {
	// PrefixLen/PrefixSHA bind the checkpoint to the trace's content: the
	// SHA-256 of the trace file's first PrefixLen bytes at checkpoint
	// time. An append-only trace never changes those bytes, so a mismatch
	// (or a shorter file) means rotation and the checkpoint is stale.
	PrefixLen int64
	PrefixSHA [32]byte

	// Declared is the block count the stream header promises.
	Declared uint64
	// Mark is the TailSeq checkpoint: sync anchor plus discard count.
	Mark []byte
	// Total is the absolute number of trace blocks consumed; it always
	// equals the position Mark names.
	Total uint64

	// Window is the rolling analysis window: the last <= W blocks when
	// saved. A checkpoint written by an older build may hold up to 2W;
	// only the last W are read.
	Window []program.BlockID

	// Epoch counts analysis epochs run; Revision counts plans published.
	Epoch    int
	Revision int
	// PublishedScore/PublishedHash describe the live plan revision;
	// Pending counts consecutive epochs a differing candidate has held a
	// significant score shift (the hysteresis ratchet).
	PublishedScore float64
	PublishedHash  string
	Pending        int

	// Regions is the cumulative damage accounting, deduplicated by
	// offset across restarts. DamageEver and LastDamageTotal implement
	// the window taint: the window is damaged until W clean blocks have
	// arrived after the most recent region.
	Regions         []trace.DamageRegion
	DamageEver      bool
	LastDamageTotal uint64
}

// SaveState atomically writes the checkpoint sidecar via tmp+rename, so
// a crash mid-write never leaves a half-written checkpoint at path.
func SaveState(path string, st *State) error {
	return saveState(path, st, new(bytes.Buffer))
}

// saveState is SaveState sealing the checkpoint in buf, which a watcher
// reuses across its checkpoints.
func saveState(path string, st *State, buf *bytes.Buffer) error {
	raw, err := encodeState(buf, st)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// encodeState seals a checkpoint in buf, which it resets first: magic,
// gob body, SHA-256 trailer. The result aliases buf.
func encodeState(buf *bytes.Buffer, st *State) ([]byte, error) {
	buf.Reset()
	buf.WriteString(stateMagic)
	if err := gob.NewEncoder(buf).Encode(st); err != nil {
		return nil, fmt.Errorf("watch: encode checkpoint: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// LoadState reads a checkpoint sidecar. Structural damage of any kind
// returns an error wrapping ErrStateCorrupt; a missing file returns the
// raw os error (test with os.IsNotExist).
func LoadState(path string) (*State, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeState(raw, path)
}

// decodeState checks a sealed checkpoint read from path and decodes its
// body.
func decodeState(raw []byte, path string) (*State, error) {
	if len(raw) < len(stateMagic)+sha256.Size || string(raw[:len(stateMagic)]) != stateMagic {
		return nil, fmt.Errorf("%w: %s is not a watch checkpoint", ErrStateCorrupt, path)
	}
	body, trailer := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("%w: %s trailer hash mismatch", ErrStateCorrupt, path)
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(body[len(stateMagic):])).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: %s body: %v", ErrStateCorrupt, path, err)
	}
	return &st, nil
}

// Validate checks the checkpoint against itself and against the trace
// file it claims to continue. A mark that does not parse, names another
// position than Total or another declared count than Declared, or
// anchors past the bound prefix fails with ErrStateCorrupt: resuming it
// would misplace the pass. The file must still contain the checkpointed
// prefix, byte-identical; a rotated or regenerated trace fails with
// ErrStateStale.
func (st *State) Validate(tracePath string) error {
	mk, err := parseMark(st.Mark)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStateCorrupt, err)
	}
	if mk.position() != st.Total || mk.declared != st.Declared || mk.anchorOff > st.PrefixLen {
		return fmt.Errorf("%w: mark (block %d of %d, anchor at byte %d) disagrees with state (block %d of %d, %d-byte prefix)",
			ErrStateCorrupt, mk.position(), mk.declared, mk.anchorOff, st.Total, st.Declared, st.PrefixLen)
	}
	sum, err := hashPrefix(tracePath, st.PrefixLen)
	if err != nil {
		if os.IsNotExist(err) || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: trace shorter than checkpointed prefix (%d bytes)", ErrStateStale, st.PrefixLen)
		}
		return err
	}
	if sum != st.PrefixSHA {
		return fmt.Errorf("%w: prefix hash mismatch over %d bytes", ErrStateStale, st.PrefixLen)
	}
	return nil
}

// hashPrefix returns the SHA-256 of the file's first n bytes. A file
// shorter than n fails with io.ErrUnexpectedEOF.
func hashPrefix(path string, n int64) ([32]byte, error) {
	var p prefixHasher
	return p.sum(path, n)
}

// prefixHasher keeps a running SHA-256 over a growing file's prefix, so
// re-binding a checkpoint to an append-only trace hashes only the bytes
// appended since the previous sum, not the whole file again.
type prefixHasher struct {
	h hash.Hash // nil until the first sum, and after a failed one
	n int64     // bytes of the file h has absorbed
	// hashed counts every byte fed to h over the hasher's life.
	hashed int64
}

// sum returns the SHA-256 of the file's first size bytes. It reads only
// the bytes past the previous sum's size; a size below that (the file
// shrank) restarts from byte 0. A file shorter than size fails with
// io.ErrUnexpectedEOF, and any failure makes the next sum restart too.
func (p *prefixHasher) sum(path string, size int64) ([32]byte, error) {
	var out [32]byte
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	if p.h == nil || size < p.n {
		p.h, p.n = sha256.New(), 0
	}
	copied, err := io.Copy(p.h, io.NewSectionReader(f, p.n, size-p.n))
	p.n += copied
	p.hashed += copied
	if err == nil && p.n < size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		p.h = nil
		return out, err
	}
	p.h.Sum(out[:0])
	return out, nil
}
