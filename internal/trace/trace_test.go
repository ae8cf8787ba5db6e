package trace

import (
	"bytes"
	"io"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/isa"
	"ripple/internal/program"
	"ripple/internal/workload"
)

func tinyApp(t *testing.T) *workload.App {
	t.Helper()
	app, err := workload.Build(workload.Model{
		Name: "trace-tiny", Seed: 5,
		Funcs: 30, ServiceFuncs: 3, UtilityFuncs: 3, Levels: 4,
		BlocksMin: 3, BlocksMax: 7, BlockBytesMin: 16, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.25, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 3, IndirectFanout: 3,
		ZipfRequest: 1.0, RequestsPerBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func roundtrip(t *testing.T, prog *program.Program, blocks []program.BlockID) Stats {
	t.Helper()
	var buf bytes.Buffer
	stats, err := EncodeSourceSync(&buf, prog, blockseq.SliceSource(blocks), 0)
	if err != nil {
		t.Fatalf("EncodeSourceSync: %v", err)
	}
	got, err := Decode(&buf, prog)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("roundtrip length %d, want %d", len(got), len(blocks))
	}
	for i := range blocks {
		if got[i] != blocks[i] {
			t.Fatalf("roundtrip diverges at %d: %d vs %d", i, got[i], blocks[i])
		}
	}
	return stats
}

func TestRoundtripSyntheticApp(t *testing.T) {
	app := tinyApp(t)
	stats := roundtrip(t, app.Prog, app.Trace(0, 20000))
	if stats.Blocks < 20000 {
		t.Fatalf("stats.Blocks = %d", stats.Blocks)
	}
	// PT-like density: a fraction of a byte per block.
	if bpb := stats.BitsPerBlock(); bpb > 8 {
		t.Fatalf("encoding density %.2f bits/block, want < 8", bpb)
	}
	// Intra-request returns compress against the call stack; only the
	// request-boundary ret per request needs a TIP (the tiny app's
	// requests are short, so the boundary share is large).
	if stats.RetsTotal > 0 && float64(stats.RetsCompressed)/float64(stats.RetsTotal) < 0.35 {
		t.Fatalf("only %d/%d rets compressed", stats.RetsCompressed, stats.RetsTotal)
	}
}

func TestRoundtripAllCatalogApps(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all nine applications")
	}
	for _, m := range workload.Catalog() {
		app, err := workload.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		roundtrip(t, app.Prog, app.Trace(0, 5000))
	}
}

func TestRoundtripEmptyTrace(t *testing.T) {
	app := tinyApp(t)
	roundtrip(t, app.Prog, nil)
}

func TestRoundtripSingleBlock(t *testing.T) {
	app := tinyApp(t)
	roundtrip(t, app.Prog, app.Trace(0, 1)[:1])
}

func TestRoundtripMultipleInputs(t *testing.T) {
	app := tinyApp(t)
	for input := 0; input < 3; input++ {
		roundtrip(t, app.Prog, app.Trace(input, 3000))
	}
}

func TestDecoderStreaming(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 1000)
	var buf bytes.Buffer
	if _, err := EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(blocks), 0); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf, app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		id, err := d.Next()
		if err == io.EOF {
			if i != len(blocks) {
				t.Fatalf("EOF after %d blocks, want %d", i, len(blocks))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if id != blocks[i] {
			t.Fatalf("block %d: got %d want %d", i, id, blocks[i])
		}
	}
	// Next after EOF keeps returning EOF.
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next: %v", err)
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	app := tinyApp(t)
	if _, err := Decode(bytes.NewReader([]byte{0xFF, 0x01}), app.Prog); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Decode(bytes.NewReader(nil), app.Prog); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 2000)
	var buf bytes.Buffer
	if _, err := EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(blocks), 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut the stream at several points; decoding must error, not hang or
	// return silently short data.
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 2} {
		_, err := Decode(bytes.NewReader(full[:cut]), app.Prog)
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestEncoderStepAfterClose(t *testing.T) {
	app := tinyApp(t)
	var buf bytes.Buffer
	e := NewEncoder(&buf, app.Prog)
	blocks := app.Trace(0, 10)
	for _, b := range blocks[:5] {
		if err := e.Step(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf, app.Prog); err != nil {
		t.Fatalf("decode of partial trace: %v", err)
	}
}

func TestStatsConsistency(t *testing.T) {
	app := tinyApp(t)
	var buf bytes.Buffer
	stats, err := EncodeSourceSync(&buf, app.Prog, app.Stream(0, 10000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RetsCompressed > stats.RetsTotal {
		t.Fatal("more compressed rets than rets")
	}
	if stats.Bytes != uint64(buf.Len()) {
		t.Fatalf("stats.Bytes %d, buffer %d", stats.Bytes, buf.Len())
	}
	if stats.TIPs == 0 || stats.TNTBits == 0 {
		t.Fatal("expected both TIP packets and TNT bits in a realistic trace")
	}
}

// TestDecodeSurvivesCorruption flips bytes throughout a valid stream and
// checks the decoder neither panics nor hangs — it either errors or
// produces some (possibly wrong) block sequence of bounded length.
func TestDecodeSurvivesCorruption(t *testing.T) {
	app := tinyApp(t)
	blocks := app.Trace(0, 3000)
	var buf bytes.Buffer
	if _, err := EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(blocks), 0); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for i := 0; i < len(valid); i += 7 {
		corrupted := append([]byte(nil), valid...)
		corrupted[i] ^= 0x5A
		got, err := Decode(bytes.NewReader(corrupted), app.Prog)
		if err == nil && uint64(len(got)) > uint64(len(blocks))*2+16 {
			t.Fatalf("corruption at %d produced %d blocks (input had %d)", i, len(got), len(blocks))
		}
	}
}

// TestTIPDeltaCompression: TIPs ping-ponging between two nearby targets
// compress to 1-2 delta bytes each after the first, thanks to last-IP XOR
// compression.
func TestTIPDeltaCompression(t *testing.T) {
	bd := program.NewBuilder("pingpong")
	bd.StartFunc("a", false)
	a0 := bd.AddBlock(32, isa.TermIndirectJump)
	bd.StartFunc("b", false)
	b0 := bd.AddBlock(32, isa.TermIndirectJump)
	bd.SetIndirect(a0, []program.BlockID{b0}, program.NoBlock)
	bd.SetIndirect(b0, []program.BlockID{a0}, program.NoBlock)
	prog, err := bd.Finish(0x400000)
	if err != nil {
		t.Fatal(err)
	}
	tr := []program.BlockID{a0, b0, a0, b0, a0, b0, a0, b0}
	stats := roundtrip(t, prog, tr)
	if stats.TIPs != uint64(len(tr)) {
		t.Fatalf("TIPs = %d, want one per block", stats.TIPs)
	}
	// Header + count + 8 TIPs: the first carries ~3 address bytes, the
	// remaining 7 repeat a constant 1-byte XOR delta. Budget: well under
	// 4 bytes per TIP.
	if stats.Bytes > uint64(len(tr))*4 {
		t.Fatalf("TIP stream is %d bytes for %d TIPs: delta compression broken", stats.Bytes, len(tr))
	}
}

func TestEncoderErrorSticks(t *testing.T) {
	app := tinyApp(t)
	var buf bytes.Buffer
	e := NewEncoder(&buf, app.Prog)
	tr := app.Trace(0, 10)
	if err := e.Step(tr[0]); err != nil {
		t.Fatal(err)
	}
	// Corrupt the encoder's view: an invalid terminator on the previous
	// block poisons the stream; the error must stick.
	app.Prog.Block(tr[0]).Term = 99
	err1 := e.Step(tr[1])
	app.Prog.Block(tr[0]).Term = 0 // restore for other tests (fresh app anyway)
	if err1 == nil {
		t.Skip("terminator damage not observed at this step")
	}
	if err2 := e.Step(tr[1]); err2 == nil {
		t.Fatal("Step after error succeeded")
	}
	if _, err3 := e.Close(); err3 == nil {
		t.Fatal("Close after error succeeded")
	}
}

func TestBitsPerBlockZeroBlocks(t *testing.T) {
	var s Stats
	if s.BitsPerBlock() != 0 {
		t.Fatal("BitsPerBlock on empty stats")
	}
}

// TestRoundtripPhasedTrace: phase-rotated traces (different walker code
// path) also round-trip.
func TestRoundtripPhasedTrace(t *testing.T) {
	app, err := workload.Build(workload.Model{
		Name: "phase-trace", Seed: 5,
		Funcs: 30, ServiceFuncs: 3, UtilityFuncs: 3, Levels: 4,
		BlocksMin: 3, BlocksMax: 7, BlockBytesMin: 16, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.25, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 3, IndirectFanout: 3,
		ZipfRequest: 1.0, RequestsPerBurst: 2,
		PhaseRequests: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	roundtrip(t, app.Prog, app.Trace(0, 5000))
}
