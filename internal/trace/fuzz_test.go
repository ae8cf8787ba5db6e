package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/program"
)

import wl "ripple/internal/workload"

// buildFuzzApp builds the same tiny app tinyApp uses, without a *testing.T.
func buildFuzzApp() (*wl.App, error) {
	return wl.Build(wl.Model{
		Name: "fuzz-tiny", Seed: 5,
		Funcs: 30, ServiceFuncs: 3, UtilityFuncs: 3, Levels: 4,
		BlocksMin: 3, BlocksMax: 7, BlockBytesMin: 16, BlockBytesMax: 64,
		PCond: 0.3, PCall: 0.25, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 3, IndirectFanout: 3,
		ZipfRequest: 1.0, RequestsPerBurst: 2,
	})
}

// FuzzDecode feeds arbitrary byte streams to the decoder; it must never
// panic or loop, only return an error or a bounded block sequence. On any
// stream it accepts, encode→decode→encode must be a fixed point: the
// decoded blocks are a CFG-consistent walk by construction, so they must
// re-encode, the re-encoded stream must decode to the same walk, and
// re-encoding that walk must reproduce the same bytes (the encoder is
// deterministic). The committed corpus under testdata/fuzz/FuzzDecode
// (see gen_corpus.go) seeds the fuzzer with real packet structure from
// several encoded app traces; the f.Add seeds below cover the degenerate
// shapes.
func FuzzDecode(f *testing.F) {
	app, err := buildFuzzApp()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := EncodeSourceSync(&buf, app.Prog, app.Stream(0, 500), 0); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{pktPSB, 0x05, pktTNT, 2, 0xFF})
	f.Add([]byte{pktPSB, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data), app.Prog)
		if err != nil {
			// Satellite invariant: every rejection names the stream byte
			// offset and the packet kind it was reading.
			if !strings.Contains(err.Error(), "offset") {
				t.Fatalf("decode error lacks byte offset: %v", err)
			}
			return
		}
		if len(got) > 1<<22 {
			t.Fatalf("unbounded decode: %d blocks", len(got))
		}
		var first bytes.Buffer
		if _, err := EncodeSourceSync(&first, app.Prog, blockseq.SliceSource(got), 0); err != nil {
			t.Fatalf("decoded walk failed to re-encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()), app.Prog)
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("round trip changed length: %d -> %d blocks", len(got), len(again))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("round trip diverged at block %d: %d -> %d", i, got[i], again[i])
			}
		}
		var second bytes.Buffer
		if _, err := EncodeSourceSync(&second, app.Prog, blockseq.SliceSource(again), 0); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encode is not a fixed point on its own decode")
		}
	})
}

// FuzzDecodeRecover feeds arbitrary byte streams to the recovery-mode
// decoder. It must terminate without panicking on any input, never
// return a non-header error, and produce a DecodeReport whose accounting
// is internally consistent: Decoded matches the emitted block count and
// never exceeds Declared, Decoded+BlocksLost == Declared, damage regions
// are ordered with Resume past Offset (or -1 for a dead tail) and carry
// a reason. On streams strict mode accepts, recovery must decode the
// identical sequence with zero damage. The committed corpus under
// testdata/fuzz/FuzzDecodeRecover (see gen_corpus.go) seeds sync-point
// streams, seeded corruption, and PSB-spliced variants.
func FuzzDecodeRecover(f *testing.F) {
	app, err := buildFuzzApp()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(app.Trace(0, 500)), 64); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{pktPSB, 0x05, pktTNT, 2, 0xFF})
	f.Add(append([]byte{pktPSB, 0x20}, psbMagic[:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		strictBlocks, strictErr := Decode(bytes.NewReader(data), app.Prog)

		got, rep, err := DecodeRecover(bytes.NewReader(data), app.Prog)
		if err != nil {
			// Only an unusable header may fail recovery; strict mode must
			// agree the stream is unusable.
			if strictErr == nil {
				t.Fatalf("recovery failed (%v) on a stream strict mode accepts", err)
			}
			return
		}
		if uint64(len(got)) != rep.Decoded {
			t.Fatalf("emitted %d blocks but report claims %d", len(got), rep.Decoded)
		}
		if rep.Decoded > rep.Declared {
			t.Fatalf("decoded %d > declared %d", rep.Decoded, rep.Declared)
		}
		if rep.Decoded+rep.BlocksLost() != rep.Declared {
			t.Fatalf("accounting: decoded %d + lost %d != declared %d", rep.Decoded, rep.BlocksLost(), rep.Declared)
		}
		if cov := rep.Coverage(); cov < 0 || cov > 1 {
			t.Fatalf("coverage %v outside [0, 1]", cov)
		}
		prevEnd := int64(0)
		for i, reg := range rep.Regions {
			if reg.Reason == "" {
				t.Fatalf("region %d has no reason", i)
			}
			if reg.Offset < prevEnd {
				t.Fatalf("region %d offset %d before previous end %d", i, reg.Offset, prevEnd)
			}
			if reg.Resume == -1 {
				if i != len(rep.Regions)-1 {
					t.Fatalf("dead region %d is not last", i)
				}
				continue
			}
			if reg.Resume < reg.Offset {
				t.Fatalf("region %d resumes at %d before damage at %d", i, reg.Resume, reg.Offset)
			}
			prevEnd = reg.Resume
		}
		if strictErr == nil {
			if rep.Damaged() || rep.BlocksLost() != 0 {
				t.Fatalf("strict-clean stream reported damage: %+v", rep)
			}
			if len(got) != len(strictBlocks) {
				t.Fatalf("recovery decoded %d blocks, strict %d", len(got), len(strictBlocks))
			}
			for i := range got {
				if got[i] != strictBlocks[i] {
					t.Fatalf("recovery diverges from strict at %d", i)
				}
			}
		}
	})
}

// FuzzDecodeSource drives arbitrary bytes through a BytesSource pass —
// the batched NextBatch fast path behind every trace source, with
// Collect pre-sizing from the header's declared count (blockseq.CapHint;
// the committed corpus entry 17128cdf4b3fc0af is a hostile header that
// once forced an unbounded allocation there). Whatever the input, the
// pass must reproduce the per-block reference decode exactly: Decode in
// strict mode, DecodeRecover with rec — same blocks, same error text,
// same recovery report.
func FuzzDecodeSource(f *testing.F) {
	app, err := buildFuzzApp()
	if err != nil {
		f.Fatal(err)
	}
	var clean bytes.Buffer
	if _, err := EncodeSourceSync(&clean, app.Prog, blockseq.SliceSource(app.Trace(0, 800)), 64); err != nil {
		f.Fatal(err)
	}
	f.Add(clean.Bytes(), true)
	dmg := append([]byte(nil), clean.Bytes()...)
	if len(dmg) > 40 {
		dmg[len(dmg)/3] ^= 0xA5
	}
	f.Add(dmg, true)
	f.Add(dmg, false)
	f.Add([]byte{}, false)
	f.Add(append([]byte{pktPSB, 0x20}, psbMagic[:]...), true)

	f.Fuzz(func(t *testing.T, data []byte, rec bool) {
		var want []program.BlockID
		var wantRep DecodeReport
		var wantErr error
		if rec {
			want, wantRep, wantErr = DecodeRecover(bytes.NewReader(data), app.Prog)
		} else {
			want, wantErr = Decode(bytes.NewReader(data), app.Prog)
		}
		src := BytesSource(data, app.Prog, FileOptions{Recover: rec})
		got, gotErr := blockseq.Collect(src)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("reference err = %v, source err = %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text differs:\n  reference: %v\n  source:    %v", wantErr, gotErr)
			}
			if !rec {
				return // strict Decode drops the blocks before the error
			}
		}
		if len(want) != len(got) {
			t.Fatalf("source decoded %d blocks, reference %d", len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("source diverges from reference at block %d", i)
			}
		}
		if rec && wantErr == nil {
			gotRep, ok := src.(Reporting).DecodeReport()
			if !ok {
				t.Fatal("completed recovery pass published no report")
			}
			if !reflect.DeepEqual(wantRep, gotRep) {
				t.Fatalf("reports differ:\n  reference: %+v\n  source:    %+v", wantRep, gotRep)
			}
		}
	})
}
