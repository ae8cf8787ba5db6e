package workload

import (
	"fmt"
	"testing"

	"ripple/internal/blockseq"
	"ripple/internal/blockseq/blockseqtest"
)

// TestStreamReplaysByteIdentical is the replayability contract: every
// Open of the same (app, input) source — and the materialized Trace —
// yields the identical block sequence.
func TestStreamReplaysByteIdentical(t *testing.T) {
	app, err := Build(tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	for input := 0; input < 3; input++ {
		src := app.Stream(input, 4000)
		first, err := blockseq.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		second, err := blockseq.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		slice := app.Trace(input, 4000)
		if len(first) != len(second) || len(first) != len(slice) {
			t.Fatalf("input %d: lengths %d/%d/%d", input, len(first), len(second), len(slice))
		}
		for i := range first {
			if first[i] != second[i] || first[i] != slice[i] {
				t.Fatalf("input %d: divergence at %d: %d/%d/%d", input, i, first[i], second[i], slice[i])
			}
		}
		if len(first) < 4000 {
			t.Fatalf("input %d: stream yielded only %d blocks", input, len(first))
		}
	}
}

// TestStreamZeroMinBlocksIsEmpty matches Trace's minBlocks<=0 behavior.
func TestStreamZeroMinBlocksIsEmpty(t *testing.T) {
	app, err := Build(tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	got, err := blockseq.Collect(app.Stream(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("minBlocks=0 yielded %d blocks", len(got))
	}
}

// TestStreamSourceConformance proves App.Stream honors the full Source
// contract (replay identity, LenHint agreement, independent interleaved
// and concurrent passes) via the shared conformance kit.
func TestStreamSourceConformance(t *testing.T) {
	app, err := Build(tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	for input := 0; input < 2; input++ {
		t.Run(fmt.Sprintf("input%d", input), func(t *testing.T) {
			blockseqtest.TestSource(t, func(*testing.T) blockseq.Source {
				return app.Stream(input, 3000)
			})
		})
	}
}

// TestStreamSourceFaultConformance: injected faults on a workload stream
// must not poison later replays (the walker re-derives its RNG state per
// Open).
func TestStreamSourceFaultConformance(t *testing.T) {
	app, err := Build(tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	blockseqtest.TestSourceFault(t, func(*testing.T) blockseq.Source {
		return app.Stream(0, 2000)
	})
}
