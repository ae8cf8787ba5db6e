//go:build ignore

// Command gen_corpus regenerates the committed FuzzDecode and
// FuzzDecodeRecover seed corpora from encoded app traces, in the native
// Go fuzzing corpus format:
//
//	cd internal/trace && go run gen_corpus.go
//
// FuzzDecode entries are full valid packet streams from differently-
// shaped synthetic apps (different seeds, block-size ranges, and trace
// lengths), plus a truncated and a corrupted variant, so the fuzzer
// starts from real packet structure on both the accept and reject paths.
// FuzzDecodeRecover adds sync-point (SyncEvery) streams with seeded
// mid-region corruption and PSB-spliced variants, so recovery decoding
// starts from streams that actually exercise resync scanning.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"ripple/internal/blockseq"
	"ripple/internal/fault"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

func main() {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	recDir := filepath.Join("testdata", "fuzz", "FuzzDecodeRecover")
	for _, d := range []string{dir, recDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	models := []struct {
		m      workload.Model
		blocks int
	}{
		{tiny(5, 16, 64), 500},
		{tiny(11, 24, 96), 900},
		{tiny(23, 16, 48), 300},
	}
	for _, mc := range models {
		app, err := workload.Build(mc.m)
		if err != nil {
			log.Fatal(err)
		}
		blocks := app.Trace(0, mc.blocks)
		var buf bytes.Buffer
		if _, err := trace.EncodeSourceSync(&buf, app.Prog, blockseq.SliceSource(blocks), 0); err != nil {
			log.Fatal(err)
		}
		raw := buf.Bytes()
		write(dir, fmt.Sprintf("valid-%s", mc.m.Name), raw)
		if mc.m.Seed == 5 {
			write(dir, "truncated-"+mc.m.Name, raw[:len(raw)/2])
			bad := append([]byte(nil), raw...)
			bad[len(bad)/3] ^= 0x5A
			write(dir, "corrupt-"+mc.m.Name, bad)
		}

		var sbuf bytes.Buffer
		if _, err := trace.EncodeSourceSync(&sbuf, app.Prog, blockseq.SliceSource(blocks), 64); err != nil {
			log.Fatal(err)
		}
		synced := sbuf.Bytes()
		write(recDir, "sync-"+mc.m.Name, synced)
		if mc.m.Seed == 5 {
			// Seeded mid-region corruption: the recovery decoder must
			// skip to the next sync point.
			corrupt, _ := fault.NewInjector(mc.m.Seed).Overwrite(synced, 6, len(synced)/3, 2*len(synced)/3)
			write(recDir, "sync-corrupt-"+mc.m.Name, corrupt)
			cut, _ := fault.NewInjector(mc.m.Seed).Truncate(synced, len(synced)/2, len(synced)/2+1)
			write(recDir, "sync-truncated-"+mc.m.Name, cut)
			// PSB-spliced: a plain stream with sync magic grafted into the
			// middle, so the fuzzer sees magic at packet-invalid positions.
			splice := append([]byte(nil), raw[:len(raw)/2]...)
			splice = append(splice, 0x01, 0x82, 0x02, 0x82)
			splice = append(splice, raw[len(raw)/2:]...)
			write(recDir, "psb-spliced-"+mc.m.Name, splice)
		}
	}
}

func tiny(seed uint64, bmin, bmax int) workload.Model {
	return workload.Model{
		Name: fmt.Sprintf("corpus-%d", seed), Seed: seed,
		Funcs: 30, ServiceFuncs: 3, UtilityFuncs: 3, Levels: 4,
		BlocksMin: 3, BlocksMax: 7, BlockBytesMin: bmin, BlockBytesMax: bmax,
		PCond: 0.3, PCall: 0.25, PICall: 0.05, PIJump: 0.03,
		PLoopBack: 0.1, PBiasStrong: 0.8,
		CalleeMin: 1, CalleeMax: 3, IndirectFanout: 3,
		ZipfRequest: 1.0, RequestsPerBurst: 2,
	}
}

// write emits one corpus entry in the "go test fuzz v1" format.
func write(dir, name string, data []byte) {
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes encoded)\n", path, len(data))
}
