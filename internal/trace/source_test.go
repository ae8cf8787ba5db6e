package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
	"ripple/internal/isa"
	"ripple/internal/program"
)

// encoded returns a valid packet stream of the given trace.
func encoded(t *testing.T, prog *program.Program, blocks []program.BlockID) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := EncodeSourceSync(&buf, prog, blockseq.SliceSource(blocks), 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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

func TestBytesSourceReplaysDecode(t *testing.T) {
	app := tinyApp(t)
	want := app.Trace(0, 5000)
	raw := encoded(t, app.Prog, want)
	src := BytesSource(raw, app.Prog, FileOptions{})
	if n, ok := blockseq.LenHint(src); !ok || n != len(want) {
		t.Fatalf("LenHint = %d,%v, want %d", n, ok, len(want))
	}
	for pass := 0; pass < 2; pass++ {
		got, err := blockseq.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d blocks, want %d", pass, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: divergence at %d", pass, i)
			}
		}
	}
}

func TestSourceSurfacesOpenError(t *testing.T) {
	app := tinyApp(t)
	src := FileSourceOptions("/nonexistent/trace.pt", app.Prog, FileOptions{})
	seq := src.Open()
	if _, ok := seq.Next(); ok {
		t.Fatal("Next succeeded on unopenable file")
	}
	if seq.Err() == nil {
		t.Fatal("missing open error")
	}
	if _, ok := blockseq.LenHint(src); ok {
		t.Fatal("LenHint claimed to know an unopenable file's length")
	}
}

func TestSourceSurfacesDecodeError(t *testing.T) {
	app := tinyApp(t)
	raw := encoded(t, app.Prog, app.Trace(0, 2000))
	src := BytesSource(raw[:len(raw)-3], app.Prog, FileOptions{})
	_, err := blockseq.Collect(src)
	if err == nil {
		t.Fatal("truncated stream decoded cleanly through the source")
	}
}

// --- decoder error-path coverage (satellite): every malformed input must
// return an error, never panic or silently truncate. ---

// TestDecodeRejectsEarlyEnd covers the block-count mismatch where the
// packet stream ends (well-formed END packet) before the header's
// declared count: this used to decode as a silently shortened trace.
func TestDecodeRejectsEarlyEnd(t *testing.T) {
	app := tinyApp(t)
	tr := app.Trace(0, 2000)
	raw := encoded(t, app.Prog, tr)

	// Re-declare twice the block count in the header, keeping packets.
	var hdr bytes.Buffer
	hdr.WriteByte(pktPSB)
	var tmp [binary.MaxVarintLen64]byte
	r := bytes.NewReader(raw[1:])
	declared, err := binary.ReadUvarint(r)
	if err != nil {
		t.Fatal(err)
	}
	if declared != uint64(len(tr)) {
		t.Fatalf("header declares %d, trace has %d", declared, len(tr))
	}
	n := binary.PutUvarint(tmp[:], declared*2)
	hdr.Write(tmp[:n])
	rest := make([]byte, r.Len())
	if _, err := r.Read(rest); err != nil {
		t.Fatal(err)
	}
	hdr.Write(rest)

	got, err := Decode(bytes.NewReader(hdr.Bytes()), app.Prog)
	if err == nil {
		t.Fatalf("over-declared stream decoded %d blocks without error", len(got))
	}
	if !strings.Contains(err.Error(), "declared blocks missing") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDecodeRejectsTrailingGarbage covers the opposite count mismatch:
// packets continue after the declared count instead of an END packet.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	app := tinyApp(t)
	raw := encoded(t, app.Prog, app.Trace(0, 1000))
	// Replace the final END byte with a TNT packet header.
	mut := append([]byte(nil), raw...)
	if mut[len(mut)-1] != pktEnd {
		t.Fatalf("stream does not end with END packet: %#x", mut[len(mut)-1])
	}
	mut[len(mut)-1] = pktTNT
	if _, err := Decode(bytes.NewReader(mut), app.Prog); err == nil {
		t.Fatal("stream without a final END packet decoded cleanly")
	}
}

func TestDecodeRejectsUnknownPacketByte(t *testing.T) {
	app := tinyApp(t)
	tr := app.Trace(0, 1000)
	raw := encoded(t, app.Prog, tr)
	// Corrupt every packet-start candidate one at a time is expensive;
	// instead overwrite a byte shortly after the header with an unknown
	// packet type and require the decode to fail (the decoder expects a
	// specific packet kind at every read position).
	for _, bad := range []byte{0x7f, 0xee} {
		mut := append([]byte(nil), raw...)
		mut[4] = bad
		if _, err := Decode(bytes.NewReader(mut), app.Prog); err == nil {
			t.Fatalf("unknown packet byte %#x accepted", bad)
		}
	}
}

func TestDecodeRejectsOversizedTNT(t *testing.T) {
	app := tinyApp(t)
	// Hand-build: header declaring 2 blocks, TIP to a conditional-branch
	// block (so the second block needs a TNT bit), then a TNT packet
	// claiming more bits than the format allows.
	entry := condEntryAddr(t, app.Prog)
	var buf bytes.Buffer
	buf.WriteByte(pktPSB)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 2)
	buf.Write(tmp[:n])
	writeTIP(&buf, entry)
	buf.WriteByte(pktTNT)
	buf.WriteByte(maxTNTBits + 1)
	for i := 0; i < 16; i++ {
		buf.WriteByte(0xff)
	}
	_, err := Decode(bytes.NewReader(buf.Bytes()), app.Prog)
	if err == nil || !strings.Contains(err.Error(), "TNT") {
		t.Fatalf("oversized TNT packet: err = %v", err)
	}
	// A zero-bit TNT packet is equally malformed.
	b2 := buf.Bytes()[:buf.Len()-17]
	b2 = append(b2, pktTNT, 0)
	if _, err := Decode(bytes.NewReader(b2), app.Prog); err == nil {
		t.Fatal("zero-bit TNT packet accepted")
	}
}

func TestDecodeRejectsBadTIP(t *testing.T) {
	app := tinyApp(t)
	var buf bytes.Buffer
	buf.WriteByte(pktPSB)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 1)
	buf.Write(tmp[:n])
	// TIP with too many delta bytes.
	buf.WriteByte(pktTIP)
	buf.WriteByte(9)
	head := append([]byte(nil), buf.Bytes()...)
	if _, err := Decode(bytes.NewReader(head), app.Prog); err == nil ||
		!strings.Contains(err.Error(), "TIP") {
		t.Fatal("TIP with 9 delta bytes accepted")
	}
	// TIP targeting an address that is not a block entry.
	var buf2 bytes.Buffer
	buf2.Write(head[:len(head)-2])
	writeTIP(&buf2, 0xdeadbeefcafe)
	if _, err := Decode(bytes.NewReader(buf2.Bytes()), app.Prog); err == nil ||
		!strings.Contains(err.Error(), "not a block entry") {
		t.Fatal("TIP to non-entry address accepted")
	}
}

func TestDecodeRejectsTruncatedMidPacket(t *testing.T) {
	app := tinyApp(t)
	raw := encoded(t, app.Prog, app.Trace(0, 3000))
	// Cut inside the stream at several depths; all must error.
	for _, cut := range []int{3, len(raw) / 3, len(raw) - 1} {
		if cut >= len(raw) {
			continue
		}
		if _, err := Decode(bytes.NewReader(raw[:cut]), app.Prog); err == nil {
			t.Fatalf("stream truncated at %d/%d decoded cleanly", cut, len(raw))
		}
	}
}

// condEntryAddr returns the entry address of some conditional-branch
// block, so the decode step after a TIP to it must consume a TNT bit.
func condEntryAddr(t *testing.T, prog *program.Program) uint64 {
	t.Helper()
	for i := range prog.Blocks {
		if prog.Blocks[i].Term == isa.TermCondBranch {
			return prog.Blocks[i].Addr
		}
	}
	t.Fatal("program has no conditional branch")
	return 0
}

// writeTIP emits a TIP packet for target assuming lastIP starts at 0.
func writeTIP(buf *bytes.Buffer, target uint64) {
	buf.WriteByte(pktTIP)
	delta := target // XOR against lastIP = 0
	var db []byte
	for delta != 0 {
		db = append(db, byte(delta))
		delta >>= 8
	}
	buf.WriteByte(byte(len(db)))
	buf.Write(db)
}

// --- shared Source-contract conformance (blockseqtest) -----------------

func TestFileSourceConformance(t *testing.T) {
	app := tinyApp(t)
	raw := encoded(t, app.Prog, app.Trace(0, 3000))
	path := filepath.Join(t.TempDir(), "trace.pt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	blockseqtest.TestSource(t, func(*testing.T) blockseq.Source {
		return FileSourceOptions(path, app.Prog, FileOptions{})
	})
	t.Run("readat", func(t *testing.T) {
		blockseqtest.TestSource(t, func(*testing.T) blockseq.Source {
			return readAtSource(path, app.Prog, FileOptions{})
		})
	})
}

func TestBytesSourceConformance(t *testing.T) {
	app := tinyApp(t)
	raw := encoded(t, app.Prog, app.Trace(0, 3000))
	blockseqtest.TestSource(t, func(*testing.T) blockseq.Source {
		return BytesSource(raw, app.Prog, FileOptions{})
	})
}

// TestEncodeSourceStreamConformance closes the streaming loop: a workload
// stream encoded in one pass by EncodeSourceSync decodes into a fully
// conformant source that replays the original stream.
func TestEncodeSourceStreamConformance(t *testing.T) {
	app := tinyApp(t)
	want := app.Trace(0, 3000)
	var buf bytes.Buffer
	if _, err := EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(want), 0); err != nil {
		t.Fatal(err)
	}
	src := BytesSource(buf.Bytes(), app.Prog, FileOptions{})
	got, err := blockseq.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
	blockseqtest.TestSource(t, func(*testing.T) blockseq.Source {
		return BytesSource(buf.Bytes(), app.Prog, FileOptions{})
	})
}

// TestTruncatedSourceErrorConformance: a stream cut off mid-way must
// surface its deferred error on every pass, per the shared kit.
func TestTruncatedSourceErrorConformance(t *testing.T) {
	app := tinyApp(t)
	raw := encoded(t, app.Prog, app.Trace(0, 3000))
	trunc := raw[:len(raw)/2]
	blockseqtest.TestSourceError(t, func(*testing.T) blockseq.Source {
		return BytesSource(trunc, app.Prog, FileOptions{})
	})
}

// TestTraceSourceFaultConformance: injected faults on decoding sources —
// strict and recovering — must not poison later replays (every Open
// re-decodes from the start).
func TestTraceSourceFaultConformance(t *testing.T) {
	app := tinyApp(t)
	raw := encoded(t, app.Prog, app.Trace(0, 3000))
	t.Run("bytes", func(t *testing.T) {
		blockseqtest.TestSourceFault(t, func(*testing.T) blockseq.Source {
			return BytesSource(raw, app.Prog, FileOptions{})
		})
	})
	path := filepath.Join(t.TempDir(), "trace.pt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("file", func(t *testing.T) {
		blockseqtest.TestSourceFault(t, func(*testing.T) blockseq.Source {
			return FileSourceOptions(path, app.Prog, FileOptions{})
		})
	})
	t.Run("recovering", func(t *testing.T) {
		blockseqtest.TestSourceFault(t, func(*testing.T) blockseq.Source {
			return BytesSource(raw, app.Prog, FileOptions{Recover: true})
		})
	})
}

// --- the ReadAt fallback -------------------------------------------------

// readAtSource is FileSourceOptions with the file's mapping pre-failed:
// every pass takes the ReadAt fallback a platform without mmap takes.
func readAtSource(path string, prog *program.Program, o FileOptions) blockseq.Source {
	src := FileSourceOptions(path, prog, o).(*source)
	src.h.mapErr = errors.New("mmap disabled by test")
	return src
}

// TestMmapFileSourceIdentity pins the mmap fast path against the ReadAt
// fallback byte-for-byte, including the recovery report on damaged
// input.
func TestMmapFileSourceIdentity(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 6000)
	data, stats := encodeSync(t, app.Prog, blocks, 256)
	offs := syncOffsets(t, data, stats.Syncs)
	damaged := append([]byte(nil), data...)
	damaged[offs[1]+len(psbMagic)] = 0x7F

	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.pt")
	dmg := filepath.Join(dir, "damaged.pt")
	for p, b := range map[string][]byte{clean: data, dmg: damaged} {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("clean", func(t *testing.T) {
		want, err := blockseq.Collect(readAtSource(clean, app.Prog, FileOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := blockseq.Collect(FileSourceOptions(clean, app.Prog, FileOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		if !equalBlocks(want, got) {
			t.Fatal("mmap decode diverges from ReadAt decode")
		}
	})
	t.Run("damaged-recovery", func(t *testing.T) {
		serial := readAtSource(dmg, app.Prog, FileOptions{Recover: true})
		want, err := blockseq.Collect(serial)
		if err != nil {
			t.Fatal(err)
		}
		mapped := FileSourceOptions(dmg, app.Prog, FileOptions{Recover: true})
		got, err := blockseq.Collect(mapped)
		if err != nil {
			t.Fatal(err)
		}
		if !equalBlocks(want, got) {
			t.Fatal("mmap recovery diverges from ReadAt recovery")
		}
		wantRep, _ := serial.(Reporting).DecodeReport()
		gotRep, ok := mapped.(Reporting).DecodeReport()
		if !ok {
			t.Fatal("mmap recovery pass published no report")
		}
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Fatalf("reports differ: mmap %+v, ReadAt %+v", gotRep, wantRep)
		}
	})
}

func equalBlocks(a, b []program.BlockID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSourceCapabilities pins what consumers probe for. Every source
// counts (LenHint), meters decode work, reports recovery, and closes.
func TestSourceCapabilities(t *testing.T) {
	path, tr, prog := writeTrace(t, t.TempDir(), 256)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  blockseq.Source
	}{
		{"file", FileSourceOptions(path, prog, FileOptions{})},
		{"file-recover", FileSourceOptions(path, prog, FileOptions{Recover: true})},
		{"file-readat", readAtSource(path, prog, FileOptions{})},
		{"bytes", BytesSource(raw, prog, FileOptions{})},
		{"bytes-recover", BytesSource(raw, prog, FileOptions{Recover: true})},
	} {
		_, counter := c.src.(blockseq.Counter)
		_, counting := c.src.(DecodeCounting)
		_, reporting := c.src.(Reporting)
		_, closer := c.src.(io.Closer)
		if !counter || !counting || !reporting || !closer {
			t.Errorf("%s: Counter %t, DecodeCounting %t, Reporting %t, Closer %t; want all",
				c.name, counter, counting, reporting, closer)
		}
		if got, err := blockseq.Collect(c.src); err != nil || len(got) != len(tr) {
			t.Errorf("%s: %d blocks, err %v", c.name, len(got), err)
		}
	}
}

// --- descriptor reuse and decode metering -------------------------------

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
