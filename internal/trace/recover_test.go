package trace

import (
	"bytes"
	"strings"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/fault"
	"ripple/internal/program"
)

// syncOffsets returns the byte offsets of every PSB sync-point magic in
// an encoded stream.
func syncOffsets(t *testing.T, data []byte, want uint64) []int {
	t.Helper()
	var offs []int
	for i := 0; i+len(psbMagic) <= len(data); i++ {
		if matchMagic(data[i : i+len(psbMagic)]) {
			offs = append(offs, i)
		}
	}
	if uint64(len(offs)) != want {
		t.Fatalf("found %d sync magics in stream, encoder reports %d", len(offs), want)
	}
	return offs
}

// syncBlockIndices mirrors the encoder's sync placement rule: the sync
// lands at the first packet-producing transition once n blocks have
// passed, and the returned indices are the blocks each sync's TIP
// re-establishes.
func syncBlockIndices(prog *program.Program, blocks []program.BlockID, n int) []int {
	var idx []int
	since := 0
	for i := range blocks {
		if i == 0 {
			since = 1
			continue
		}
		if since >= n && syncableTerm(prog.Block(blocks[i-1]).Term) {
			idx = append(idx, i)
			since = 1
			continue
		}
		since++
	}
	return idx
}

// encodeSync encodes blocks with a sync point every n blocks.
func encodeSync(t *testing.T, prog *program.Program, blocks []program.BlockID, n int) ([]byte, Stats) {
	t.Helper()
	var buf bytes.Buffer
	stats, err := EncodeSourceSync(&buf, prog, blockseq.SliceSource(blocks), n)
	if err != nil {
		t.Fatalf("EncodeSourceSync: %v", err)
	}
	return buf.Bytes(), stats
}

// TestSyncEveryZeroIsByteIdentical pins backward compatibility:
// EncodeSourceSync with no sync interval produces exactly the bytes of
// an Encoder never given one, so existing corpora, golden files, and
// store signatures stay valid.
func TestSyncEveryZeroIsByteIdentical(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 5000)
	var plain bytes.Buffer
	e := NewEncoder(&plain, app.Prog)
	for _, b := range blocks {
		if err := e.Step(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Close(); err != nil {
		t.Fatal(err)
	}
	synced, stats := encodeSync(t, app.Prog, blocks, 0)
	if stats.Syncs != 0 {
		t.Fatalf("SyncEvery(0) emitted %d syncs", stats.Syncs)
	}
	if !bytes.Equal(plain.Bytes(), synced) {
		t.Fatal("SyncEvery(0) stream differs from plain encoding")
	}
}

// TestSyncEveryStrictDecodeIdentical pins the other compatibility
// direction: an undamaged stream with sync points decodes, strictly, to
// the identical block sequence.
func TestSyncEveryStrictDecodeIdentical(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 5000)
	data, stats := encodeSync(t, app.Prog, blocks, 256)
	if stats.Syncs == 0 {
		t.Fatal("no sync points emitted for a 5000-block trace at SyncEvery(256)")
	}
	syncOffsets(t, data, stats.Syncs)
	got, err := Decode(bytes.NewReader(data), app.Prog)
	if err != nil {
		t.Fatalf("strict decode of undamaged sync stream: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("decoded %d blocks, want %d", len(got), len(blocks))
	}
	for i := range blocks {
		if got[i] != blocks[i] {
			t.Fatalf("sync stream decode diverges at %d", i)
		}
	}
}

// TestRecoverUndamagedStream: recovery mode on a clean stream is
// indistinguishable from strict mode, with full coverage.
func TestRecoverUndamagedStream(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 3000)
	data, _ := encodeSync(t, app.Prog, blocks, 256)
	got, rep, err := DecodeRecover(bytes.NewReader(data), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged() || rep.BlocksLost() != 0 || rep.Coverage() != 1 {
		t.Fatalf("clean stream reported damage: %+v", rep)
	}
	if rep.Declared != uint64(len(blocks)) || rep.Decoded != uint64(len(blocks)) {
		t.Fatalf("accounting: %+v want %d blocks", rep, len(blocks))
	}
	for i := range blocks {
		if got[i] != blocks[i] {
			t.Fatalf("recovery decode diverges at %d", i)
		}
	}
}

// TestRecoveryResumesAtNextSync is the tentpole acceptance test: a
// SyncEvery(256) stream with seeded corruption inside one inter-sync
// region must, in recovery mode, lose exactly that region — resuming at
// the next sync point with the remainder decoded exactly — and account
// the damage in the report. Strict mode must fail on the same bytes,
// with the byte offset in the error.
func TestRecoveryResumesAtNextSync(t *testing.T) {
	const every = 256
	app := tinyApp(t)
	blocks := app.Trace(0, 5000)
	data, stats := encodeSync(t, app.Prog, blocks, every)
	if stats.Syncs < 3 {
		t.Fatalf("need at least 3 sync points, got %d", stats.Syncs)
	}
	offs := syncOffsets(t, data, stats.Syncs)
	idx := syncBlockIndices(app.Prog, blocks, every)
	if len(idx) != len(offs) {
		t.Fatalf("placement mirror found %d syncs, stream has %d", len(idx), len(offs))
	}

	// Damaging sync 1 (0-based) loses exactly the blocks between it and
	// sync 2: [idx[1], idx[2]).
	damaged := append([]byte(nil), data...)
	damaged[offs[1]+len(psbMagic)] = 0x7F // clobber the sync's TIP header
	// Seeded corruption inside the now-dead region, as arrives-damaged
	// streams really look; recovery skips it without decoding.
	damaged, _ = fault.NewInjector(12345).Overwrite(damaged, 8, offs[1]+len(psbMagic)+1, offs[2])

	if _, err := Decode(bytes.NewReader(damaged), app.Prog); err == nil {
		t.Fatal("strict decode accepted the damaged stream")
	} else if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("strict error has no byte offset: %v", err)
	}

	got, rep, err := DecodeRecover(bytes.NewReader(damaged), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	lostLo, lostHi := idx[1], idx[2]
	want := append(append([]program.BlockID(nil), blocks[:lostLo]...), blocks[lostHi:]...)
	if len(got) != len(want) {
		t.Fatalf("decoded %d blocks, want %d (exact loss of the %d-block damaged region)", len(got), len(want), lostHi-lostLo)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered sequence diverges at %d", i)
		}
	}
	if len(rep.Regions) != 1 {
		t.Fatalf("want 1 damage region, got %+v", rep.Regions)
	}
	reg := rep.Regions[0]
	if reg.Offset < int64(offs[1]) || reg.Offset > int64(offs[2]) {
		t.Fatalf("damage offset %d outside damaged span [%d, %d]", reg.Offset, offs[1], offs[2])
	}
	if reg.Resume != int64(offs[2]+len(psbMagic)) {
		t.Fatalf("resumed at %d, want just past sync magic at %d", reg.Resume, offs[2]+len(psbMagic))
	}
	if reg.Reason == "" || !strings.Contains(reg.Reason, "offset") {
		t.Fatalf("region reason missing offset context: %q", reg.Reason)
	}
	if rep.Declared != uint64(len(blocks)) || rep.Decoded != uint64(len(got)) {
		t.Fatalf("accounting: %+v", rep)
	}
	if rep.BlocksLost() != uint64(lostHi-lostLo) {
		t.Fatalf("BlocksLost = %d, want %d", rep.BlocksLost(), lostHi-lostLo)
	}
	if cov := rep.Coverage(); cov <= 0.9 || cov >= 1 {
		t.Fatalf("coverage %.4f, want in (0.9, 1)", cov)
	}
}

// TestRecoveryTruncatedTail: a stream cut mid-way decodes its intact
// prefix and accounts the missing tail as a region with no resume point.
func TestRecoveryTruncatedTail(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 4000)
	data, _ := encodeSync(t, app.Prog, blocks, 256)
	cut, _ := fault.NewInjector(7).Truncate(data, len(data)/2, len(data)/2+1)

	got, rep, err := DecodeRecover(bytes.NewReader(cut), app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(blocks) {
		t.Fatalf("decoded %d of %d blocks from a half stream", len(got), len(blocks))
	}
	for i := range got {
		if got[i] != blocks[i] {
			t.Fatalf("prefix diverges at %d", i)
		}
	}
	if n := len(rep.Regions); n == 0 {
		t.Fatal("no damage region for truncated tail")
	} else if last := rep.Regions[n-1]; last.Resume != -1 {
		t.Fatalf("truncated tail should have Resume=-1, got %+v", last)
	}
	if rep.Decoded != uint64(len(got)) || rep.Decoded+rep.BlocksLost() != rep.Declared {
		t.Fatalf("inconsistent accounting: %+v", rep)
	}
}

// TestDecodeErrorsCarryOffsetAndKind pins the satellite: every decoder
// error names the stream byte offset and the packet kind being read.
func TestDecodeErrorsCarryOffsetAndKind(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 500)
	var buf bytes.Buffer
	if _, err := EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(blocks), 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"garbage packet byte", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[4] = 0x7F
			return out
		}},
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"bad header", func(d []byte) []byte { return []byte{0x55} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(tc.mutate(data)), app.Prog)
			if err == nil {
				t.Skip("mutation decoded cleanly")
			}
			msg := err.Error()
			if !strings.Contains(msg, "offset") {
				t.Fatalf("error lacks byte offset: %v", err)
			}
			if !strings.ContainsAny(msg, "()") {
				t.Fatalf("error lacks packet kind: %v", err)
			}
		})
	}
}

// TestRecoveringSourceConformance: a recovery-mode source over a damaged
// stream still satisfies the full Source contract — recovery decoding is
// deterministic, so every pass replays the identical sequence — and
// publishes its decode report after a pass completes.
func TestRecoveringSourceConformance(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 3000)
	data, stats := encodeSync(t, app.Prog, blocks, 256)
	offs := syncOffsets(t, data, stats.Syncs)
	damaged := append([]byte(nil), data...)
	damaged[offs[0]+len(psbMagic)] = 0x7F

	blockseqtest.TestSource(t, func(*testing.T) blockseq.Source {
		return BytesSource(damaged, app.Prog, FileOptions{Recover: true})
	})

	src := BytesSource(damaged, app.Prog, FileOptions{Recover: true})
	if _, ok := src.(Reporting).DecodeReport(); ok {
		t.Fatal("report available before any pass")
	}
	seq := src.Open()
	n := 0
	for {
		if _, ok := seq.Next(); !ok {
			break
		}
		n++
	}
	if err := seq.Err(); err != nil {
		t.Fatalf("recovery pass errored: %v", err)
	}
	rep, ok := src.(Reporting).DecodeReport()
	if !ok {
		t.Fatal("no report after a completed pass")
	}
	if rep.Decoded != uint64(n) || !rep.Damaged() {
		t.Fatalf("report %+v after decoding %d blocks", rep, n)
	}
}
