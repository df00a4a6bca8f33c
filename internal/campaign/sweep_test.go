package campaign

import (
	"fmt"
	"reflect"
	"testing"
)

// trail records, per point, the chunks in the order merge saw them; a merge
// that ran out of input order permutes it.
type trail struct {
	chunks []Chunk
}

func appendTrail(dst, src *trail) { dst.chunks = append(dst.chunks, src.chunks...) }

// sweepTrail runs a 3-point sweep of 10 seeds per point in chunks of 3 (the
// last chunk of every point is short).  With a pool, the first chunk of
// point 0 finishes only after the second one has, so a merge in completion
// order would put chunk 1 ahead of chunk 0.
func sweepTrail(t *testing.T, workers int) []trail {
	t.Helper()
	second := make(chan struct{})
	got, err := Sweep(3, 10, 100, 3, workers, func(c Chunk, acc *trail) error {
		if workers > 1 && c.Point == 0 {
			switch c.Index {
			case 0:
				<-second
			case 3:
				defer close(second)
			}
		}
		acc.chunks = append(acc.chunks, c)
		return nil
	}, appendTrail)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return got
}

func TestSweepMergesChunksInInputOrder(t *testing.T) {
	want := make([]trail, 3)
	for p := range want {
		for lo := 0; lo < 10; lo += 3 {
			want[p].chunks = append(want[p].chunks, Chunk{
				Point: p, Seed: 100 + uint64(p*10+lo), Index: lo, Count: min(3, 10-lo),
			})
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		if got := sweepTrail(t, workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestSweepDefaultChunk(t *testing.T) {
	got, err := Sweep(1, DefaultChunk+1, 0, 0, 1, func(c Chunk, acc *trail) error {
		acc.chunks = append(acc.chunks, c)
		return nil
	}, appendTrail)
	if err != nil {
		t.Fatal(err)
	}
	want := []Chunk{{Count: DefaultChunk}, {Seed: DefaultChunk, Index: DefaultChunk, Count: 1}}
	if !reflect.DeepEqual(got[0].chunks, want) {
		t.Errorf("chunks = %+v, want %+v", got[0].chunks, want)
	}
}

// Every chunk from the k-th on fails; the reported error must be chunk k's
// at every width, as a sequential sweep would report it.
func TestSweepReportsFirstFailingChunk(t *testing.T) {
	const k = 5 // point 1's second chunk: seeds 15..17
	for _, workers := range []int{1, 2, 3, 8} {
		merged := 0
		_, err := Sweep(3, 12, 0, 3, workers, func(c Chunk, _ *trail) error {
			if idx := c.Point*4 + c.Index/3; idx >= k {
				return fmt.Errorf("chunk %d failed", idx)
			}
			return nil
		}, func(dst, src *trail) { merged++ })
		if err == nil || err.Error() != fmt.Sprintf("chunk %d failed", k) {
			t.Errorf("workers=%d: err = %v, want chunk %d's", workers, err, k)
		}
		if merged != 0 {
			t.Errorf("workers=%d: merged %d chunks of a failed sweep", workers, merged)
		}
	}
}
