package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

type payload struct {
	Name  string
	Vals  []float64
	Count uint64
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := payload{Name: "fh", Vals: []float64{1.5, -2, 0}, Count: 1 << 40}
	if err := st.Put("sig-a", &in); err != nil {
		t.Fatal(err)
	}
	raw, status := st.Lookup("sig-a")
	if status != StatusHit {
		t.Fatalf("stored entry = %v, want StatusHit", status)
	}
	j := NewJob[payload]("sig-a", "a", 1, nil)
	v, err := j.decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	out := v.(*payload)
	if out.Name != in.Name || out.Count != in.Count || len(out.Vals) != 3 || out.Vals[1] != -2 {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestStoreMissesOnAbsentSig(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, status := st.Lookup("never-stored"); status != StatusMiss {
		t.Fatalf("absent entry = %v, want StatusMiss", status)
	}
}

func TestStoreToleratesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Plant garbage exactly where the entry would live.
	path := filepath.Join(dir, key("sig-b")+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Regression (one read path): corruption must classify as
	// StatusCorrupt, never read as a plain miss.
	if _, status := st.Lookup("sig-b"); status != StatusCorrupt {
		t.Fatalf("corrupt entry = %v, want StatusCorrupt", status)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file not cleaned up")
	}
	// Once quarantined, the slot reads as a genuine miss...
	if _, status := st.Lookup("sig-b"); status != StatusMiss {
		t.Fatal("quarantined entry did not become a miss")
	}
	// ...and is immediately reusable.
	if err := st.Put("sig-b", &payload{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	if _, status := st.Lookup("sig-b"); status != StatusHit {
		t.Fatal("fresh entry missed after corruption cleanup")
	}
}

func TestStoreRejectsSigMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("sig-c", &payload{}); err != nil {
		t.Fatal(err)
	}
	// Move the entry under a different signature's address: the embedded
	// signature no longer matches, so the entry is corrupt — never
	// served, never a silent miss.
	if err := os.Rename(filepath.Join(dir, key("sig-c")+".json"), filepath.Join(dir, key("sig-d")+".json")); err != nil {
		t.Fatal(err)
	}
	if _, status := st.Lookup("sig-d"); status != StatusCorrupt {
		t.Fatal("entry with mismatched signature not classified corrupt")
	}
}

func TestKeyIsStableHex(t *testing.T) {
	if key("x") != key("x") || len(key("x")) != 64 {
		t.Fatalf("key = %q", key("x"))
	}
	if key("x") == key("y") {
		t.Fatal("distinct signatures share a key")
	}
}

// TestPoolServesFromStoreAcrossPools simulates two processes sharing a
// cache directory: the second pool must not recompute.
func TestPoolServesFromStoreAcrossPools(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	job := func() Job {
		return NewJob("shared", "shared", 1, func() (*payload, error) {
			runs.Add(1)
			return &payload{Name: "computed", Count: 9}, nil
		})
	}
	st1, _ := OpenStore(dir)
	p1 := New(Options{Workers: 1, Store: st1})
	if _, err := p1.Do(job()); err != nil {
		t.Fatal(err)
	}
	st2, _ := OpenStore(dir)
	p2 := New(Options{Workers: 1, Store: st2})
	v, err := p2.Do(job())
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*payload); got.Name != "computed" || got.Count != 9 {
		t.Fatalf("store result = %+v", got)
	}
	if runs.Load() != 1 {
		t.Fatalf("job recomputed despite warm store (%d runs)", runs.Load())
	}
	if st := p2.Stats(); st.StoreHits != 1 || st.Computed != 0 {
		t.Fatalf("second pool stats = %+v", st)
	}
}

func TestOpenStoreRejectsEmptyDir(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestStoreConcurrentPutLookupSameSig: many goroutines hammer Put and
// Lookup of the same signature. Atomic temp-file + rename writes mean a
// reader must observe either a miss (before any rename landed) or one
// writer's complete entry — never a torn or corrupt one — and the final
// state is exactly one winning write.
func TestStoreConcurrentPutLookupSameSig(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const sig = "contended"
	const writers, readers, rounds = 8, 8, 50
	var wg sync.WaitGroup
	var corrupt, torn atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.Put(sig, &payload{Name: "writer", Count: uint64(w)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*2; r++ {
				raw, status := st.Lookup(sig)
				switch status {
				case StatusCorrupt:
					corrupt.Add(1)
				case StatusHit:
					var got payload
					if json.Unmarshal(raw, &got) != nil || got.Name != "writer" || got.Count >= writers {
						torn.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	if corrupt.Load() != 0 || torn.Load() != 0 {
		t.Fatalf("concurrent readers saw %d corrupt and %d torn entries", corrupt.Load(), torn.Load())
	}
	// Exactly one complete entry wins.
	raw, status := st.Lookup(sig)
	if status != StatusHit {
		t.Fatalf("final lookup = %v, want StatusHit", status)
	}
	var got payload
	if err := json.Unmarshal(raw, &got); err != nil || got.Name != "writer" {
		t.Fatalf("final entry torn: %s", raw)
	}
	// No temp droppings: every put either renamed into place or was
	// cleaned up.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// FuzzStoreLookup writes arbitrary bytes as one signature's entry file.
// Lookup must not panic. It serves the entry's result exactly when the
// framing is valid (version 1, the same signature, a non-empty, non-null
// result); anything else is StatusCorrupt, with the file moved byte for
// byte into quarantine, so the slot reads as a clean miss again.
func FuzzStoreLookup(f *testing.F) {
	const sig = "fuzz|sig=1"
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := st.path(sig)
	qpath := filepath.Join(st.QuarantineDir(), filepath.Base(path))
	// Lookup creates the quarantine directory on first use; creating it
	// here makes each input's coverage depend on that input alone.
	if err := os.MkdirAll(st.QuarantineDir(), 0o755); err != nil {
		f.Fatal(err)
	}
	if err := st.Put(sig, &payload{Name: "seed", Vals: []float64{1.5, -2}, Count: 7}); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"v":2,"sig":"fuzz|sig=1","result":{"Name":"x"}}`))
	f.Add([]byte(`{"v":1,"sig":"fuzz|sig=2","result":{"Name":"x"}}`))
	f.Add([]byte(`{"v":1,"sig":"fuzz|sig=1"}`))
	f.Add([]byte(`{"v":1,"sig":"fuzz|sig=1","result":null}`))
	f.Add(good[:len(good)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, s := st.Lookup(sig); s != StatusMiss {
			t.Fatalf("absent entry = %v, want StatusMiss", s)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		raw, status := st.Lookup(sig)
		var e entry
		if json.Unmarshal(data, &e) == nil && e.Version == 1 && e.Sig == sig && len(e.Result) > 0 && string(e.Result) != "null" {
			if status != StatusHit || !bytes.Equal(raw, e.Result) {
				t.Fatalf("valid entry = %v with %q, want StatusHit with %q", status, raw, e.Result)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			return
		}
		if status != StatusCorrupt || raw != nil {
			t.Fatalf("invalid entry = %v with %q, want StatusCorrupt", status, raw)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry still in place: %v", err)
		}
		q, err := os.ReadFile(qpath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(q, data) {
			t.Fatalf("quarantined %q, want the entry's bytes %q", q, data)
		}
		if err := os.Remove(qpath); err != nil {
			t.Fatal(err)
		}
	})
}
