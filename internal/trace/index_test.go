package trace

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/fault"
	"ripple/internal/program"
)

// encodedSync returns a packet stream with a sync point roughly every
// `every` blocks.
func encodedSync(t *testing.T, prog *program.Program, blocks []program.BlockID, every int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := EncodeSourceSync(&buf, prog, blockseq.SliceSource(blocks), every); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeTrace writes an encoded, sync-pointed trace file and returns its
// path alongside the reference block sequence.
func writeTrace(t *testing.T, dir string, every int) (string, []program.BlockID, *program.Program) {
	t.Helper()
	app := tinyApp(t)
	tr := app.Trace(0, 6000)
	raw := encodedSync(t, app.Prog, tr, every)
	path := filepath.Join(dir, "trace.pt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, tr, app.Prog
}

func TestBuildIndexRecordsSyncPoints(t *testing.T) {
	app := tinyApp(t)
	tr := app.Trace(0, 6000)
	raw := encodedSync(t, app.Prog, tr, 256)
	idx, err := BuildIndex(bytes.NewReader(raw), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Declared != uint64(len(tr)) {
		t.Fatalf("Declared = %d, want %d", idx.Declared, len(tr))
	}
	// ~one sync per 256 blocks; the encoder defers to the next syncable
	// transition, so the exact count floats a little.
	if n := len(idx.Entries); n < len(tr)/512 || n > len(tr)/128 {
		t.Fatalf("%d sync points for %d blocks at interval 256", n, len(tr))
	}
	var prev IndexEntry
	for i, e := range idx.Entries {
		if e.Off <= prev.Off || (i > 0 && e.Block <= prev.Block) {
			t.Fatalf("entry %d not strictly increasing: %+v after %+v", i, e, prev)
		}
		if e.Block > uint64(len(tr)) {
			t.Fatalf("entry %d block %d beyond trace", i, e.Block)
		}
		prev = e
	}
	// A stream encoded without sync points indexes to zero entries.
	plain := encoded(t, app.Prog, tr)
	idx2, err := BuildIndex(bytes.NewReader(plain), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx2.Entries) != 0 {
		t.Fatalf("sync-free stream produced %d index entries", len(idx2.Entries))
	}
}

func TestIndexSidecarRoundtrip(t *testing.T) {
	app := tinyApp(t)
	raw := encodedSync(t, app.Prog, app.Trace(0, 6000), 256)
	idx, err := BuildIndex(bytes.NewReader(raw), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	sha := [32]byte{1, 2, 3}
	path := filepath.Join(t.TempDir(), "trace.ptidx")
	if err := WriteIndexFile(path, idx, sha, int64(len(raw))); err != nil {
		t.Fatal(err)
	}
	got, err := LoadIndexFile(path, sha, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Declared != idx.Declared || len(got.Entries) != len(idx.Entries) {
		t.Fatalf("roundtrip: %d/%d entries, declared %d/%d",
			len(got.Entries), len(idx.Entries), got.Declared, idx.Declared)
	}
	for i := range idx.Entries {
		if got.Entries[i] != idx.Entries[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, got.Entries[i], idx.Entries[i])
		}
	}
	// The wrong trace hash must be stale, never silently accepted.
	if _, err := LoadIndexFile(path, [32]byte{9}, int64(len(raw))); !errors.Is(err, ErrIndexStale) {
		t.Fatalf("mismatched hash: %v, want ErrIndexStale", err)
	}
	// So must the wrong trace length (same hash prefix cannot happen in
	// practice, but the length check is the cheap first line).
	if _, err := LoadIndexFile(path, sha, int64(len(raw))+7); !errors.Is(err, ErrIndexStale) {
		t.Fatalf("mismatched length: %v, want ErrIndexStale", err)
	}
	// A missing sidecar surfaces the underlying not-exist error.
	if _, err := LoadIndexFile(path+".gone", sha, int64(len(raw))); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing sidecar: %v, want fs.ErrNotExist", err)
	}
}

func TestIndexPathNaming(t *testing.T) {
	if got := IndexPath("a/b/trace.pt"); got != "a/b/trace.ptidx" {
		t.Fatalf("IndexPath(trace.pt) = %q", got)
	}
	if got := IndexPath("a/b/trace.bin"); got != "a/b/trace.bin.ptidx" {
		t.Fatalf("IndexPath(trace.bin) = %q", got)
	}
}

// --- indexed source conformance --------------------------------------

// indexedFileSource opens path with FileOptions.Index and builds its
// seek index up front, as its first pass would.
func indexedFileSource(t *testing.T, path string, prog *program.Program) blockseq.Source {
	t.Helper()
	src := FileSourceOptions(path, prog, FileOptions{Index: true})
	if _, err := src.(*source).seekIndex(); err != nil {
		t.Fatal(err)
	}
	return src
}

func TestIndexedFileSourceConformance(t *testing.T) {
	path, _, prog := writeTrace(t, t.TempDir(), 256)
	open := func(*testing.T) blockseq.Source {
		return FileSourceOptions(path, prog, FileOptions{Index: true})
	}
	blockseqtest.TestSource(t, open)
	blockseqtest.TestSourceSeek(t, open)
	blockseqtest.TestSourceCheckpoint(t, open)
	blockseqtest.TestSourceCheckpointDisk(t, open)
	t.Run("readat", func(t *testing.T) {
		open := func(*testing.T) blockseq.Source {
			return readAtSource(path, prog, FileOptions{Index: true})
		}
		blockseqtest.TestSource(t, open)
		blockseqtest.TestSourceSeek(t, open)
		blockseqtest.TestSourceCheckpoint(t, open)
	})
}

// TestIndexedFileSourceNoSyncPoints: a sync-free stream still seeks
// (restarting from the header), just without the cost bound.
func TestIndexedFileSourceNoSyncPoints(t *testing.T) {
	path, _, prog := writeTrace(t, t.TempDir(), 0)
	open := func(*testing.T) blockseq.Source {
		return FileSourceOptions(path, prog, FileOptions{Index: true})
	}
	blockseqtest.TestSourceSeek(t, open)
	blockseqtest.TestSourceCheckpoint(t, open)
	blockseqtest.TestSourceCheckpointDisk(t, open)
}

// TestIndexedSeekDecodeBudget is the acceptance bound: positioning at
// block n of a SyncEvery(256) trace decodes at most one sync interval of
// discarded blocks, not the n-block prefix.
func TestIndexedSeekDecodeBudget(t *testing.T) {
	path, tr, prog := writeTrace(t, t.TempDir(), 256)
	src := indexedFileSource(t, path, prog)
	counting := src.(DecodeCounting)
	target := len(tr) - 100
	before := counting.DecodedBlocks()
	seq := src.Open().(blockseq.Seeker)
	if err := seq.SeekBlock(target); err != nil {
		t.Fatal(err)
	}
	cost := counting.DecodedBlocks() - before
	// Nearest sync <= target is under one interval away; the encoder may
	// defer a sync past its nominal point, so allow 2x slack.
	if cost > 512 {
		t.Fatalf("seek to block %d decoded %d blocks, want <= 512", target, cost)
	}
	got, err := blockseq.Collect(blockseq.Func(func() blockseq.Seq { return seq.(blockseq.Seq) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("tail after seek has %d blocks, want 100", len(got))
	}
	for i, bid := range got {
		if bid != tr[target+i] {
			t.Fatalf("tail diverges at %d", i)
		}
	}
}

// --- incremental extension ---------------------------------------------

// boundedReaderAt fails the test if any read lands below a floor: the
// extension path must never re-read the already-indexed prefix.
type boundedReaderAt struct {
	t     *testing.T
	r     *bytes.Reader
	floor int64
}

func (b *boundedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < b.floor {
		b.t.Errorf("ExtendIndex read offset %d below resume point %d", off, b.floor)
	}
	return b.r.ReadAt(p, off)
}

// TestExtendIndexMatchesRebuild: resuming the index scan at the last
// recorded sync point must produce exactly the index a full rebuild
// produces, for every possible resume point, while reading only the
// suffix.
func TestExtendIndexMatchesRebuild(t *testing.T) {
	app := tinyApp(t)
	tr := app.Trace(0, 6000)
	raw := encodedSync(t, app.Prog, tr, 256)
	full, err := BuildIndex(bytes.NewReader(raw), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Entries) < 4 {
		t.Fatalf("need several sync points, got %d", len(full.Entries))
	}
	for k := 0; k <= len(full.Entries); k++ {
		partial := &Index{
			Declared: full.Declared,
			Entries:  append([]IndexEntry(nil), full.Entries[:k]...),
		}
		ra := &boundedReaderAt{t: t, r: bytes.NewReader(raw)}
		if k > 0 {
			ra.floor = full.Entries[k-1].Off
		}
		ext, err := ExtendIndex(ra, int64(len(raw)), app.Prog, partial)
		if err != nil {
			t.Fatalf("extend from %d entries: %v", k, err)
		}
		if ext.Declared != full.Declared || len(ext.Entries) != len(full.Entries) {
			t.Fatalf("extend from %d entries: %d entries declared %d, want %d/%d",
				k, len(ext.Entries), ext.Declared, len(full.Entries), full.Declared)
		}
		for i := range full.Entries {
			if ext.Entries[i] != full.Entries[i] {
				t.Fatalf("extend from %d entries: entry %d = %+v, want %+v",
					k, i, ext.Entries[i], full.Entries[i])
			}
		}
		if len(partial.Entries) != k {
			t.Fatalf("ExtendIndex mutated its input (now %d entries)", len(partial.Entries))
		}
	}
}

// TestIndexSidecarExtendVsRebuildByteIdentity is the satellite's
// acceptance: a sidecar persisted over a verified prefix of a trace
// that has only grown is extended in place by the next open, and the
// extended sidecar is byte-identical to one rebuilt from scratch.
func TestIndexSidecarExtendVsRebuildByteIdentity(t *testing.T) {
	dir := t.TempDir()
	app := tinyApp(t)
	tr := app.Trace(0, 6000)
	raw := encodedSync(t, app.Prog, tr, 256)
	path := filepath.Join(dir, "trace.pt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	full, err := BuildIndex(bytes.NewReader(raw), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Entries) < 4 {
		t.Fatalf("need several sync points, got %d", len(full.Entries))
	}

	// Persist a sidecar as an incremental producer would: entries up to
	// the k-th sync, trace length cut mid-stream past it, hash of that
	// exact prefix.
	k := len(full.Entries) / 2
	cut := full.Entries[k].Off // entries [0,k) lie strictly below
	partial := &Index{Declared: full.Declared, Entries: append([]IndexEntry(nil), full.Entries[:k]...)}
	sidecar := IndexPath(path)
	if err := WriteIndexFile(sidecar, partial, sha256.Sum256(raw[:cut]), cut); err != nil {
		t.Fatal(err)
	}

	// Opening the grown trace extends the sidecar rather than rebuilding.
	src := indexedFileSource(t, path, app.Prog)
	got, err := blockseq.Collect(src)
	if err != nil || len(got) != len(tr) {
		t.Fatalf("decode through extended index: %d blocks, err %v", len(got), err)
	}
	extended, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild from scratch (no sidecar at all) and compare bytes.
	if err := os.Remove(sidecar); err != nil {
		t.Fatal(err)
	}
	indexedFileSource(t, path, app.Prog)
	rebuilt, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(extended, rebuilt) {
		t.Fatal("extended sidecar differs from a from-scratch rebuild")
	}

	// A partial sidecar whose recorded prefix does NOT hash clean (the
	// prefix was rewritten) must not be extended; the rebuild still
	// converges to the same bytes.
	if err := WriteIndexFile(sidecar, partial, [32]byte{0xBA, 0xD0}, cut); err != nil {
		t.Fatal(err)
	}
	indexedFileSource(t, path, app.Prog)
	after, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, rebuilt) {
		t.Fatal("sidecar after stale-prefix rebuild differs")
	}
}

// --- sidecar staleness and damage -------------------------------------

// TestIndexSidecarStaleAfterRegenerate: regenerating the trace file in
// place must invalidate the sidecar via the hash check and rebuild it;
// the stale index is never used.
func TestIndexSidecarStaleAfterRegenerate(t *testing.T) {
	dir := t.TempDir()
	app := tinyApp(t)
	path := filepath.Join(dir, "trace.pt")

	oldTrace := app.Trace(0, 6000)
	if err := os.WriteFile(path, encodedSync(t, app.Prog, oldTrace, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	indexedFileSource(t, path, app.Prog)
	sidecar := IndexPath(path)
	oldSidecar, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatalf("first open did not write a sidecar: %v", err)
	}

	// Regenerate in place: a different input's trace, same path.
	newTrace := app.Trace(1, 6000)
	newRaw := encodedSync(t, app.Prog, newTrace, 256)
	if err := os.WriteFile(path, newRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	h := &fileHandle{path: path}
	newSHA, err := h.sha256()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndexFile(sidecar, newSHA, int64(len(newRaw))); !errors.Is(err, ErrIndexStale) {
		t.Fatalf("old sidecar against regenerated trace: %v, want ErrIndexStale", err)
	}

	src := indexedFileSource(t, path, app.Prog)
	got, err := blockseq.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(newTrace) {
		t.Fatalf("decoded %d blocks, want %d", len(got), len(newTrace))
	}
	for i := range newTrace {
		if got[i] != newTrace[i] {
			t.Fatalf("stale index leaked: divergence at %d", i)
		}
	}
	rebuilt, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rebuilt, oldSidecar) {
		t.Fatal("sidecar was not rebuilt after the trace changed")
	}
	if _, err := LoadIndexFile(sidecar, newSHA, int64(len(newRaw))); err != nil {
		t.Fatalf("rebuilt sidecar does not validate: %v", err)
	}
}

// TestIndexSidecarDamageTreatedAsAbsent: a corrupt or truncated sidecar
// must be rejected structurally and rebuilt, never half-parsed.
func TestIndexSidecarDamageTreatedAsAbsent(t *testing.T) {
	damages := []struct {
		name  string
		wreck func(t *testing.T, sidecar string)
	}{
		{"bitflips", func(t *testing.T, sidecar string) {
			if _, err := fault.CorruptFile(sidecar, 7, 12); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, sidecar string) {
			if _, err := fault.TruncateFile(sidecar, 0.4); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, sidecar string) {
			if err := os.WriteFile(sidecar, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			path, tr, prog := writeTrace(t, t.TempDir(), 256)
			indexedFileSource(t, path, prog)
			sidecar := IndexPath(path)
			d.wreck(t, sidecar)
			h := &fileHandle{path: path}
			sha, err := h.sha256()
			if err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadIndexFile(sidecar, sha, fi.Size()); err == nil {
				t.Fatal("damaged sidecar loaded cleanly")
			} else if errors.Is(err, ErrIndexStale) {
				// Bit flips can land inside the stored hash; the checksum
				// must catch that before the hash comparison does.
				t.Fatalf("damaged sidecar reported stale, want corrupt: %v", err)
			}
			got, err := blockseq.Collect(FileSourceOptions(path, prog, FileOptions{Index: true}))
			if err != nil || len(got) != len(tr) {
				t.Fatalf("decode after rebuild: %d blocks, err %v", len(got), err)
			}
			if _, err := LoadIndexFile(sidecar, sha, fi.Size()); err != nil {
				t.Fatalf("sidecar not rebuilt after damage: %v", err)
			}
		})
	}
}

// TestIndexedSeekFaultPoisonsPass: a decode failure during the seek
// (damage at the landing region) must surface from SeekBlock and poison
// the pass — Next yields nothing and Err reports it — instead of leaving
// the pass at an arbitrary position.
func TestIndexedSeekFaultPoisonsPass(t *testing.T) {
	app := tinyApp(t)
	tr := app.Trace(0, 6000)
	raw := encodedSync(t, app.Prog, tr, 256)
	idx, err := BuildIndex(bytes.NewReader(raw), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) < 4 {
		t.Fatalf("need several sync points, got %d", len(idx.Entries))
	}
	// Damage the stream just past a late sync point, then seek to a block
	// after it using the (valid, pre-damage) index.
	target := idx.Entries[len(idx.Entries)-2]
	mut := append([]byte(nil), raw...)
	for i := target.Off + int64(len(psbMagic)); i < target.Off+int64(len(psbMagic))+8 && i < int64(len(mut)); i++ {
		mut[i] ^= 0xa5
	}
	path := filepath.Join(t.TempDir(), "trace.pt")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	src := &source{h: &fileHandle{path: path}, prog: app.Prog, index: true, idx: idx}
	seq := src.Open()
	if err := seq.(blockseq.Seeker).SeekBlock(int(target.Block) + 10); err == nil {
		t.Fatal("seek into damaged region succeeded")
	}
	if _, ok := seq.Next(); ok {
		t.Fatal("poisoned pass yielded a block")
	}
	if seq.Err() == nil {
		t.Fatal("poisoned pass reports no error")
	}
}

// --- descriptor reuse --------------------------------------------------

// TestFileSourceReusesDescriptor: multiple passes (and LenHint) over one
// file source must cost exactly one os.Open.
func TestFileSourceReusesDescriptor(t *testing.T) {
	path, tr, prog := writeTrace(t, t.TempDir(), 0)
	for name, src := range map[string]blockseq.Source{
		"strict":  FileSourceOptions(path, prog, FileOptions{}),
		"recover": FileSourceOptions(path, prog, FileOptions{Recover: true}),
	} {
		t.Run(name, func(t *testing.T) {
			before := FileOpens()
			for pass := 0; pass < 5; pass++ {
				blockseq.LenHint(src)
				got, err := blockseq.Collect(src)
				if err != nil || len(got) != len(tr) {
					t.Fatalf("pass %d: %d blocks, err %v", pass, len(got), err)
				}
			}
			if n := FileOpens() - before; n != 1 {
				t.Fatalf("5 passes performed %d opens, want 1", n)
			}
		})
	}
}

// TestIndexedFileSourceReusesDescriptor: hashing, index building, and
// every subsequent pass share the same descriptor.
func TestIndexedFileSourceReusesDescriptor(t *testing.T) {
	path, tr, prog := writeTrace(t, t.TempDir(), 256)
	before := FileOpens()
	src := FileSourceOptions(path, prog, FileOptions{Index: true})
	for pass := 0; pass < 3; pass++ {
		got, err := blockseq.Collect(src)
		if err != nil || len(got) != len(tr) {
			t.Fatalf("pass %d: %d blocks, err %v", pass, len(got), err)
		}
	}
	if n := FileOpens() - before; n != 1 {
		t.Fatalf("open+hash+index+3 passes performed %d opens, want 1", n)
	}
}

// TestDecodeCountingMetersPasses: the decoded-block counter advances by
// exactly the stream length per full pass.
func TestDecodeCountingMetersPasses(t *testing.T) {
	path, tr, prog := writeTrace(t, t.TempDir(), 0)
	src := FileSourceOptions(path, prog, FileOptions{})
	counting := src.(DecodeCounting)
	for pass := 1; pass <= 3; pass++ {
		if _, err := blockseq.Collect(src); err != nil {
			t.Fatal(err)
		}
		if n := counting.DecodedBlocks(); n != uint64(pass*len(tr)) {
			t.Fatalf("after %d passes DecodedBlocks = %d, want %d", pass, n, pass*len(tr))
		}
	}
}
