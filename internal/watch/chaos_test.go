package watch

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/fault"
	"ripple/internal/program"
	"ripple/internal/trace"
)

// The chaos suite runs the full watcher against live, bursty, damaged
// streams and holds it to the replay-equivalence contract: for a fixed
// final byte stream, the published revision files are byte-identical
// whether the stream was consumed offline in one pass, tailed live
// behind a seeded bursty appender, or consumed across restarts — and
// damage is never silently absorbed into a plan without coverage
// accounting.

type chaosFault struct {
	name string
	mut  func(data []byte) []byte
}

func chaosFaults() []chaosFault {
	return []chaosFault{
		{"clean", func(data []byte) []byte { return data }},
		{"drop-span", func(data []byte) []byte {
			mut, _, _ := fault.NewInjector(7).DropSpan(data, 48, len(data)/3, 2*len(data)/3)
			return mut
		}},
		{"garbage", func(data []byte) []byte {
			mut, _ := fault.NewInjector(8).InsertGarbage(data, 96, len(data)/3, 2*len(data)/3)
			return mut
		}},
	}
}

// runOffline consumes the complete file in one non-follow pass with
// eager hysteresis and returns the result plus the revision files.
func runOffline(t *testing.T, cfg Config) (Result, map[string][]byte) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeComplete {
		t.Fatalf("offline run: %+v", res)
	}
	return res, readDir(t, cfg.OutDir)
}

func TestChaosLiveEqualsOffline(t *testing.T) {
	prog, _, clean := makeTrace(t, 3000, 128)
	for _, fc := range chaosFaults() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			data := fc.mut(append([]byte(nil), clean...))
			wantBlocks, wantRep, err := trace.DecodeRecover(bytes.NewReader(data), prog)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			// Offline reference over the final bytes.
			refPath := writeFile(t, dir, "ref.pt", data)
			refOut := filepath.Join(dir, "ref-plans")
			if err := os.MkdirAll(refOut, 0o755); err != nil {
				t.Fatal(err)
			}
			refCfg := watchCfg(t, prog, refPath, refOut)
			refCfg.Hysteresis = 1e-9
			refCfg.Stable = 1
			refRes, refFiles := runOffline(t, refCfg)
			if refRes.Total != uint64(len(wantBlocks)) {
				t.Fatalf("offline watcher consumed %d blocks, decoder %d", refRes.Total, len(wantBlocks))
			}
			if refRes.Regions != len(wantRep.Regions) {
				t.Fatalf("offline watcher saw %d regions, decoder %d", refRes.Regions, len(wantRep.Regions))
			}

			// Live chaos run: a seeded bursty appender races the watcher.
			for _, seed := range []uint64{3, 11} {
				livePath := filepath.Join(dir, "live.pt")
				os.Remove(livePath)
				liveOut := filepath.Join(dir, "live-plans")
				os.RemoveAll(liveOut)
				if err := os.MkdirAll(liveOut, 0o755); err != nil {
					t.Fatal(err)
				}
				app := fault.NewAppender(livePath, data, seed, 37, 997)
				ctx, cancel := context.WithCancel(context.Background())
				errc := make(chan error, 1)
				go func() { errc <- app.Run(ctx, 100*time.Microsecond) }()

				liveCfg := watchCfg(t, prog, livePath, liveOut)
				liveCfg.StatePath = filepath.Join(dir, "live.ptwatch")
				os.Remove(liveCfg.StatePath)
				liveCfg.Hysteresis = 1e-9
				liveCfg.Stable = 1
				liveCfg.Tail = TailConfig{Follow: true, Poll: 100 * time.Microsecond, Stall: 30 * time.Second}
				res, err := Run(liveCfg)
				cancel()
				if aerr := <-errc; aerr != nil && ctx.Err() == nil {
					t.Fatalf("appender: %v", aerr)
				}
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Outcome != OutcomeComplete {
					t.Fatalf("seed %d: live run %+v", seed, res)
				}
				if res.Total != refRes.Total || res.Epochs != refRes.Epochs ||
					res.Revisions != refRes.Revisions || res.Regions != refRes.Regions {
					t.Fatalf("seed %d: live %+v != offline %+v", seed, res, refRes)
				}
				sameFiles(t, refFiles, readDir(t, liveOut), "live revisions")
			}

			// Coverage accounting invariants over every published revision.
			sawDamageAccounting := false
			for n := 1; n <= refRes.Revisions; n++ {
				rev, err := ReadRevision(RevisionPath(refOut, n))
				if err != nil {
					t.Fatal(err)
				}
				if rev.Coverage.Decoded != rev.TotalBlocks {
					t.Fatalf("revision %d: decoded %d != total %d", n, rev.Coverage.Decoded, rev.TotalBlocks)
				}
				if rev.Coverage.Declared != wantRep.Declared {
					t.Fatalf("revision %d: declared %d, stream header says %d", n, rev.Coverage.Declared, wantRep.Declared)
				}
				if fc.name == "clean" && (rev.Coverage.Regions != 0 || rev.Coverage.WindowDamaged) {
					t.Fatalf("clean stream, revision %d reports damage: %+v", n, rev.Coverage)
				}
				if rev.Coverage.Regions > 0 || rev.Coverage.WindowDamaged {
					sawDamageAccounting = true
				}
			}
			if fc.name != "clean" && refRes.Revisions > 1 && !sawDamageAccounting {
				t.Fatalf("%s: %d revisions published over a damaged stream, none carries coverage accounting", fc.name, refRes.Revisions)
			}
		})
	}
}

// TestChaosRestartEquivalence: on a damaged stream, a watcher stopped at
// arbitrary block counts and restarted from its checkpoints publishes
// the byte-identical revision files of one that never stopped — damage
// accounting survives the restart boundary.
func TestChaosRestartEquivalence(t *testing.T) {
	prog, _, clean := makeTrace(t, 3000, 128)
	data, _, _ := fault.NewInjector(21).DropSpan(clean, 64, len(clean)/4, 3*len(clean)/4)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data)

	refOut := filepath.Join(dir, "ref")
	if err := os.MkdirAll(refOut, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := watchCfg(t, prog, path, refOut)
	cfg.StatePath = filepath.Join(dir, "ref.ptwatch")
	cfg.Hysteresis = 1e-9
	cfg.Stable = 1
	want, wantFiles := runOffline(t, cfg)
	if want.Regions == 0 {
		t.Fatal("fault injection produced no damage; fixture broken")
	}

	gotOut := filepath.Join(dir, "got")
	if err := os.MkdirAll(gotOut, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg2 := watchCfg(t, prog, path, gotOut)
	cfg2.StatePath = filepath.Join(dir, "got.ptwatch")
	cfg2.Hysteresis = 1e-9
	cfg2.Stable = 1
	for _, stop := range []uint64{5, 200, 256, 512, 700, 1100, 1600, 2100} {
		cfg2.MaxBlocks = stop
		res, err := Run(cfg2)
		if err != nil {
			t.Fatalf("run to %d: %v", stop, err)
		}
		if res.Outcome != OutcomePaused {
			t.Fatalf("run to %d: %+v", stop, res)
		}
	}
	cfg2.MaxBlocks = 0
	res, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeComplete || res.Total != want.Total || res.Regions != want.Regions {
		t.Fatalf("restarted run %+v, want %+v", res, want)
	}
	sameFiles(t, wantFiles, readDir(t, gotOut), "restarted chaos revisions")
}

// TestChaosRotation: swapping a fresh-inode file under a live watcher is
// detected and surfaced as OutcomeRotated with a usable checkpoint, not
// silently decoded as a continuation.
func TestChaosRotation(t *testing.T) {
	prog, _, data := makeTrace(t, 3000, 128)
	dir := t.TempDir()
	path := writeFile(t, dir, "trace.pt", data[:len(data)/2])
	out := filepath.Join(dir, "plans")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := watchCfg(t, prog, path, out)
	cfg.Tail = TailConfig{Follow: true, Poll: time.Millisecond, Stall: 30 * time.Second}
	go func() {
		time.Sleep(30 * time.Millisecond)
		// Replacement is longer than the consumed prefix: only the inode
		// check can catch this.
		if err := fault.Rotate(path, append(append([]byte(nil), data...), data...)); err != nil {
			panic(err)
		}
	}()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeRotated {
		t.Fatalf("outcome %s, want rotated", res.Outcome)
	}
}

// TestChaosMmapSnapshotsOfLiveTail: the live tail reads through ReadAt
// (a mapping is a fixed-size snapshot and cannot follow growth), but
// nothing stops an analysis pass from memory-mapping the same file while
// the writer is still appending. Every such snapshot must classify the
// unfinished state as ErrTruncatedTail — never as corruption — and once
// the writer finishes, a fresh snapshot decodes the complete stream.
// The tail itself must deliver the full reference sequence undamaged
// throughout.
func TestChaosMmapSnapshotsOfLiveTail(t *testing.T) {
	prog, ref, data := makeTrace(t, 3000, 128)
	path := filepath.Join(t.TempDir(), "trace.pt")
	app := fault.NewAppender(path, data, 44, 37, 997)
	done := make(chan error, 1)
	go func() { done <- app.Run(context.Background(), 100*time.Microsecond) }()

	src := NewTailSource(path, prog, TailConfig{Follow: true, Stall: 10 * time.Second})
	seq := src.OpenTail()
	tailed := make(chan []program.BlockID, 1)
	go func() { tailed <- drainTail(seq) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no complete mmap snapshot within the deadline")
		}
		if _, err := os.Stat(path); err != nil {
			time.Sleep(time.Millisecond) // writer has not created the file yet
			continue
		}
		snap := trace.FileSourceOptions(path, prog, trace.FileOptions{})
		got, err := blockseq.Collect(snap)
		if c, ok := snap.(io.Closer); ok {
			c.Close()
		}
		if err != nil {
			// A strict decode of a partially written file must land on
			// the truncation classification, whatever byte it cut at.
			if !errors.Is(err, trace.ErrTruncatedTail) {
				t.Fatalf("mmap snapshot of live file = %v, want ErrTruncatedTail", err)
			}
			continue
		}
		// Strict decode succeeds only on the complete stream.
		if len(got) != len(ref) {
			t.Fatalf("complete snapshot decoded %d blocks, want %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("snapshot block %d is %d, want %d", i, got[i], ref[i])
			}
		}
		break
	}

	if err := <-done; err != nil {
		t.Fatalf("appender: %v", err)
	}
	got := <-tailed
	if err := seq.Err(); err != nil {
		t.Fatalf("tail pass ended with %v", err)
	}
	if len(got) != len(ref) {
		t.Fatalf("tailed %d blocks, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("tailed block %d is %d, want %d", i, got[i], ref[i])
		}
	}
	if n := seq.RegionCount(); n != 0 {
		t.Fatalf("clean live stream accumulated %d damage regions", n)
	}
}
