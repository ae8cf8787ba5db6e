package blockseq

import (
	"errors"
	"testing"

	"ripple/internal/program"
)

func drain(t *testing.T, seq Seq) []program.BlockID {
	t.Helper()
	var out []program.BlockID
	for {
		bid, ok := seq.Next()
		if !ok {
			if err := seq.Err(); err != nil {
				t.Fatalf("unexpected seq error: %v", err)
			}
			return out
		}
		out = append(out, bid)
	}
}

func equal(a, b []program.BlockID) bool {
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

func TestSliceSourceReplays(t *testing.T) {
	src := Of(3, 1, 4, 1, 5)
	first := drain(t, src.Open())
	second := drain(t, src.Open())
	if !equal(first, second) || !equal(first, []program.BlockID{3, 1, 4, 1, 5}) {
		t.Fatalf("replay mismatch: %v vs %v", first, second)
	}
	if n, ok := LenHint(src); !ok || n != 5 {
		t.Fatalf("LenHint = %d,%v", n, ok)
	}
}

func TestEmptySliceSource(t *testing.T) {
	src := Of()
	if got := drain(t, src.Open()); len(got) != 0 {
		t.Fatalf("empty source yielded %v", got)
	}
}

func TestCollectRoundTrip(t *testing.T) {
	want := []program.BlockID{9, 8, 7}
	got, err := Collect(SliceSource(want))
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, want) {
		t.Fatalf("Collect = %v, want %v", got, want)
	}
}

type failSeq struct{ n int }

func (f *failSeq) Next() (program.BlockID, bool) {
	if f.n <= 0 {
		return 0, false
	}
	f.n--
	return 1, true
}

func (f *failSeq) Err() error { return errors.New("boom") }

func TestCollectPropagatesError(t *testing.T) {
	src := Func(func() Seq { return &failSeq{n: 2} })
	got, err := Collect(src)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("partial collect = %v", got)
	}
}

func TestLimit(t *testing.T) {
	src := Of(1, 2, 3, 4, 5)
	for _, tc := range []struct {
		max  int
		want int
	}{{3, 3}, {10, 5}, {0, 0}, {-1, 0}} {
		lim := Limit(src, tc.max)
		got := drain(t, lim.Open())
		if len(got) != tc.want {
			t.Fatalf("Limit(%d) yielded %d blocks", tc.max, len(got))
		}
		if n, ok := LenHint(lim); !ok || n != tc.want {
			t.Fatalf("Limit(%d).LenHint = %d,%v", tc.max, n, ok)
		}
	}
	// Limit must be replayable too.
	lim := Limit(src, 2)
	if !equal(drain(t, lim.Open()), drain(t, lim.Open())) {
		t.Fatal("Limit replay mismatch")
	}
}

func TestLenHintUnknown(t *testing.T) {
	src := Func(func() Seq { return Of().Open() })
	if _, ok := LenHint(src); ok {
		t.Fatal("Func source should not report a length")
	}
}

// hinted is a source that reports an arbitrary LenHint.
type hinted struct {
	n  int
	ok bool
}

func (h hinted) Open() Seq            { return Of().Open() }
func (h hinted) LenHint() (int, bool) { return h.n, h.ok }

// TestCapHintClamps: a hint that may come from an unvalidated trace
// header is clamped to the allocation bound, and unknown or
// non-positive hints fall back.
func TestCapHintClamps(t *testing.T) {
	for _, c := range []struct {
		name string
		src  Source
		want int
	}{
		{"hostile", hinted{1 << 60, true}, 1 << 20},
		{"at-bound", hinted{1 << 20, true}, 1 << 20},
		{"small", hinted{5000, true}, 5000},
		{"zero", hinted{0, true}, 7},
		{"negative", hinted{-3, true}, 7},
		{"unknown", hinted{42, false}, 7},
		{"no-counter", Func(func() Seq { return Of(1, 2).Open() }), 7},
	} {
		if got := CapHint(c.src, 7); got != c.want {
			t.Errorf("%s: CapHint = %d, want %d", c.name, got, c.want)
		}
	}
}
