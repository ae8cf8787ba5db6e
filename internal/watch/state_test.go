package watch

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ripple/internal/program"
	"ripple/internal/trace"
)

// parentState is the fixed State behind testdata/parent.ptwatch, a
// checkpoint written by SaveState while State.Mark was still a named
// byte-slice type. Its mark is consistent with the state: a pass that
// read the header, anchored at byte 2048 after 1000 blocks, and consumed
// 24 more of 3003 declared.
func parentState() *State {
	return &State{
		PrefixLen: 4096,
		PrefixSHA: [32]byte{0: 0xde, 1: 0xad, 30: 0xbe, 31: 0xef},
		Declared:  3003,
		// version 1, flags header, anchor 2048, anchor blocks 1000,
		// skip 24, declared 3003 (uvarints).
		Mark:  []byte{0x01, 0x02, 0x80, 0x10, 0xe8, 0x07, 0x18, 0xbb, 0x17},
		Total: 1024,
		Window: []program.BlockID{
			5, 9, 2, 6, 5, 3, 5, 8, 9, 7,
		},
		Epoch:          4,
		Revision:       2,
		PublishedScore: 1.75,
		PublishedHash:  "9f86d081884c7d65",
		Pending:        1,
		Regions: []trace.DamageRegion{
			{Offset: 1500, Resume: 2048, Reason: "trace: offset 1500 (TNT): bad packet"},
		},
		DamageEver:      true,
		LastDamageTotal: 1000,
	}
}

// TestLoadParentState: a checkpoint written before State.Mark became a
// plain []byte loads back as exactly the state that wrote it. gob encodes
// a named byte-slice type and []byte identically, so existing .ptwatch
// files keep resuming.
func TestLoadParentState(t *testing.T) {
	got, err := LoadState(filepath.Join("testdata", "parent.ptwatch"))
	if err != nil {
		t.Fatal(err)
	}
	if want := parentState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v\nwant   %+v", got, want)
	}
}

// TestMismatchedCheckpointStartsFresh: a sealed checkpoint whose mark
// declares fewer blocks than its state is discarded with a log line, and
// the watcher analyzes the whole clean trace from the start instead of
// resuming into a pass that ends early and blames the trace.
func TestMismatchedCheckpointStartsFresh(t *testing.T) {
	prog, ref, data := makeTrace(t, 3000, 128)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data)
	out := filepath.Join(dir, "plans")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := watchCfg(t, prog, path, out)
	cfg.StatePath = filepath.Join(dir, "trace.ptwatch")
	cfg.MaxBlocks = 1024
	if res, err := Run(cfg); err != nil || res.Outcome != OutcomePaused || res.Total != 1024 {
		t.Fatalf("pausing run: %+v, %v", res, err)
	}

	st, err := LoadState(cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := parseMark(st.Mark)
	if err != nil {
		t.Fatal(err)
	}
	if st.Declared != uint64(len(ref)) || mk.declared != st.Declared {
		t.Fatalf("paused state declares %d (mark %d), want %d", st.Declared, mk.declared, len(ref))
	}
	mk.declared = st.Total // the mark now says the stream ends here
	st.Mark = mk.encode()
	if err := SaveState(cfg.StatePath, st); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	cfg.MaxBlocks = 0
	cfg.Log = &log
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "discarding checkpoint") {
		t.Errorf("mismatched checkpoint not reported; log:\n%s", log.String())
	}
	if res.Resumed || res.Outcome != OutcomeComplete || res.Total != uint64(len(ref)) || res.Regions != 0 {
		t.Fatalf("run after a mismatched checkpoint: %+v, want a fresh complete run to block %d with no damage\nlog:\n%s",
			res, len(ref), log.String())
	}
}

// FuzzLoadState: loading never panics on a sealed checkpoint with an
// arbitrary body, every rejection wraps ErrStateCorrupt, and an accepted
// state saves again and loads back equal. Each input is re-sealed with
// the magic and a valid SHA-256 trailer so it reaches the gob decoder.
// Equality is gob's: the reloaded state saves to the same bytes, so a NaN
// score or an empty-versus-nil slice compares equal.
func FuzzLoadState(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent.ptwatch"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[len(stateMagic) : len(raw)-sha256.Size])
	if raw, err = encodeState(&State{Mark: tailMark{flags: markFlagHeader}.encode()}); err != nil {
		f.Fatal(err)
	}
	f.Add(raw[len(stateMagic) : len(raw)-sha256.Size])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := append([]byte(stateMagic), body...)
		sum := sha256.Sum256(sealed)
		st, err := decodeState(append(sealed, sum[:]...), "fuzz")
		if err != nil {
			if !errors.Is(err, ErrStateCorrupt) {
				t.Fatalf("rejection does not wrap ErrStateCorrupt: %v", err)
			}
			return
		}
		again, err := encodeState(st)
		if err != nil {
			t.Fatalf("accepted state does not save: %v", err)
		}
		back, err := decodeState(again, "fuzz")
		if err != nil {
			t.Fatalf("re-saved state does not load: %v", err)
		}
		if twice, err := encodeState(back); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("state changed across save/load (%v):\n%+v\n%+v", err, st, back)
		}
	})
}
