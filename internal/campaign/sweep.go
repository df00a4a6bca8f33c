package campaign

import "fmt"

// DefaultChunk is the sweep chunk size used when the caller passes
// chunk <= 0.
const DefaultChunk = 1024

// Chunk is one unit of sweep work: Count consecutive seeds of one
// parameter point.
type Chunk struct {
	Point int    // parameter-point index
	Seed  uint64 // absolute first seed
	Index int    // index of the first seed within its point
	Count int    // seeds in the chunk
}

// Sweep runs a chunked seed sweep: points parameter points of seeds seeds
// each, point p covering base+p*seeds .. base+(p+1)*seeds-1, cut into
// chunks of at most chunk seeds (0 = DefaultChunk) and run on a pool of the
// given width.  run folds one whole chunk into its own zeroed accumulator;
// merge folds each point's chunk accumulators into the point's result in
// input order.  Chunk boundaries are fixed by the arguments, never by the
// worker count, so the results are byte-identical at any width.  The error
// is the lowest-index chunk's, as Run reports it; a panic in run fails its
// chunk with an error naming the chunk and carrying the panic value.
func Sweep[A any](points, seeds int, base uint64, chunk, workers int,
	run func(c Chunk, acc *A) error, merge func(dst, src *A)) ([]A, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	var jobs []Chunk
	for p := 0; p < points; p++ {
		first := base + uint64(p)*uint64(seeds)
		for lo := 0; lo < seeds; lo += chunk {
			jobs = append(jobs, Chunk{Point: p, Seed: first + uint64(lo), Index: lo, Count: min(chunk, seeds-lo)})
		}
	}
	accs := make([]A, len(jobs))
	err := Run(len(jobs), workers, func(j int) (err error) {
		c := jobs[j]
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("chunk %d (point %d, seeds %d..%d): panic: %v",
					j, c.Point, c.Seed, c.Seed+uint64(c.Count)-1, r)
			}
		}()
		return run(c, &accs[j])
	})
	if err != nil {
		return nil, err
	}
	out := make([]A, points)
	for j, c := range jobs {
		merge(&out[c.Point], &accs[j])
	}
	return out, nil
}
