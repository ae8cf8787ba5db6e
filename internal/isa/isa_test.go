package isa

import (
	"testing"
	"testing/quick"
)

func TestTermKindString(t *testing.T) {
	cases := map[TermKind]string{
		TermFallthrough:  "fallthrough",
		TermCondBranch:   "cond",
		TermJump:         "jump",
		TermCall:         "call",
		TermRet:          "ret",
		TermIndirectJump: "ijump",
		TermIndirectCall: "icall",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if TermKind(200).String() != "TermKind(200)" {
		t.Fatalf("unknown kind string = %q", TermKind(200).String())
	}
}

func TestTermKindClassifiers(t *testing.T) {
	calls := map[TermKind]bool{TermCall: true, TermIndirectCall: true}
	for k := TermFallthrough; k <= TermIndirectCall; k++ {
		if k.IsCall() != calls[k] {
			t.Fatalf("%v.IsCall() = %v", k, k.IsCall())
		}
		if !k.Valid() {
			t.Fatalf("%v should be valid", k)
		}
	}
	if TermKind(7).Valid() {
		t.Fatal("TermKind(7) should be invalid")
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 || LineOf(129) != 2 {
		t.Fatal("LineOf boundary behavior wrong")
	}
}

func TestLinesSpanned(t *testing.T) {
	cases := []struct {
		addr uint64
		size uint32
		want int
	}{
		{0, 0, 0},     // empty region
		{0, 1, 1},     // single byte
		{0, 64, 1},    // exactly one line
		{0, 65, 2},    // one byte over
		{63, 2, 2},    // straddles a boundary
		{60, 4, 1},    // ends exactly at boundary
		{100, 200, 4}, // multi-line
		{64, 128, 2},  // aligned two lines
	}
	for _, c := range cases {
		if got := LinesSpanned(c.addr, c.size); got != c.want {
			t.Fatalf("LinesSpanned(%d, %d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
}

func TestLinesSpannedProperty(t *testing.T) {
	// The span always covers the region: size bytes fit within want*64
	// bytes, and removing one line would not fit.
	if err := quick.Check(func(addr uint64, size uint16) bool {
		if size == 0 {
			return LinesSpanned(addr, 0) == 0
		}
		n := LinesSpanned(addr, uint32(size))
		lo := LineOf(addr)
		hi := LineOf(addr + uint64(size) - 1)
		return n == int(hi-lo+1) && n >= 1 && n <= int(size/LineBytes)+2
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateEncodingSize(t *testing.T) {
	// CLDEMOTE-like encoding: opcode + modrm + disp32.
	if InvalidateBytes != 7 {
		t.Fatalf("InvalidateBytes = %d", InvalidateBytes)
	}
	if LineBytes != 64 || LineBytesLog2 != 6 {
		t.Fatal("line geometry constants inconsistent")
	}
	if 1<<LineBytesLog2 != LineBytes {
		t.Fatal("LineBytesLog2 does not match LineBytes")
	}
}
