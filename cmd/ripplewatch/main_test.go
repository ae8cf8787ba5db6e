package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ripple/internal/blockseq"
	"ripple/internal/trace"
	"ripple/internal/watch"
	"ripple/internal/workload"
)

// fixture writes a small app's program image and a sync-pointed trace.
func fixture(t *testing.T) (progPath, ptPath string, blocks int) {
	t.Helper()
	app, err := workload.Build(workload.Model{
		Name: "watch-cli", Seed: 5,
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
	dir := t.TempDir()
	progPath = filepath.Join(dir, "app.prog")
	pf, err := os.Create(progPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Prog.Save(pf); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	tr := app.Trace(0, 3000)
	ptPath = filepath.Join(dir, "app.pt")
	tf, err := os.Create(ptPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.EncodeSourceSync(tf, app.Prog, blockseq.SliceSource(tr), 128); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	return progPath, ptPath, len(tr)
}

// TestRunSnapshotAndResume: a non-follow run consumes the snapshot,
// publishes revisions, and a rerun resumes from the checkpoint without
// republishing.
func TestRunSnapshotAndResume(t *testing.T) {
	progPath, ptPath, blocks := fixture(t)
	out := filepath.Join(t.TempDir(), "plans")
	var buf bytes.Buffer
	o := options{
		ProgPath: progPath, PTPath: ptPath, OutDir: out,
		Window: 256, Epoch: 256, Threshold: 0.6,
		Follow: false,
		Stdout: &buf,
	}
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != watch.OutcomeComplete || res.Total != uint64(blocks) || res.Revisions < 1 {
		t.Fatalf("run: %+v over %d blocks", res, blocks)
	}
	if _, err := os.Stat(watch.RevisionPath(out, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ptPath + ".ptwatch"); err != nil {
		t.Fatalf("default state sidecar: %v", err)
	}
	final := lastLine(buf.String())
	if !strings.HasPrefix(final, "final: outcome=complete") {
		t.Fatalf("final line %q", final)
	}

	buf.Reset()
	res2, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed || res2.Revisions != res.Revisions || res2.Total != res.Total {
		t.Fatalf("rerun: %+v, first run %+v", res2, res)
	}
	if !strings.Contains(lastLine(buf.String()), "resumed=true") {
		t.Fatalf("final line %q", lastLine(buf.String()))
	}
}

// TestRunCanceledBySignalChannel: closing Done (the signal path) while
// following an unfinished stream ends the run cleanly with a checkpoint.
func TestRunCanceledBySignalChannel(t *testing.T) {
	progPath, ptPath, blocks := fixture(t)
	raw, err := os.ReadFile(ptPath)
	if err != nil {
		t.Fatal(err)
	}
	// Withhold the tail so the watcher parks at the live edge.
	if err := os.WriteFile(ptPath, raw[:2*len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(done)
	}()
	o := options{
		ProgPath: progPath, PTPath: ptPath,
		OutDir: filepath.Join(t.TempDir(), "plans"),
		Window: 256, Epoch: 256, Threshold: 0.6,
		Follow: true, Poll: time.Millisecond,
		Done:   done,
		Stdout: nil, // exercises the io.Discard default
	}
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != watch.OutcomeCanceled {
		t.Fatalf("outcome %s, want canceled", res.Outcome)
	}
	if res.Total == 0 || res.Total >= uint64(blocks) {
		t.Fatalf("canceled at %d of %d blocks", res.Total, blocks)
	}
	if _, err := os.Stat(ptPath + ".ptwatch"); err != nil {
		t.Fatalf("checkpoint after cancel: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if _, err := run(options{}); err == nil {
		t.Fatal("missing required flags accepted")
	}
	progPath, ptPath, _ := fixture(t)
	o := options{
		ProgPath: progPath, PTPath: ptPath,
		OutDir:    filepath.Join(t.TempDir(), "plans"),
		Threshold: 2,
	}
	if _, err := run(o); err == nil || !strings.Contains(err.Error(), "threshold") {
		t.Fatalf("threshold 2: %v", err)
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}
