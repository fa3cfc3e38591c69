package frame

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ftqc/internal/bits"
)

// chunkLanes is the fixed lane count per Monte Carlo batch chunk. It is a
// constant — never derived from GOMAXPROCS — because the chunk index keys
// each chunk's RNG stream: a machine-dependent width would change the
// chunking and silently change the sampled results. 128 lanes amortize
// word-level sampling while leaving samples/128 chunks to spread over the
// CPUs.
const chunkLanes = 128

// CountSectorFailures runs a two-sector chunked experiment and tallies
// the per-sector failure counts plus the either-sector union — the
// shared accounting of every dual-sector (bit-flip/phase-flip) memory
// experiment. run must return the two per-lane failure masks for its
// chunk; the masks are consumed (the first is overwritten with the
// union).
func CountSectorFailures(samples int, seed uint64, run func(lanes int, smp Sampler) (failA, failB bits.Vec)) (a, b, either int) {
	var ca, cb, ce atomic.Int64
	ForEachChunk(samples, seed, func(lanes int, smp Sampler) {
		failA, failB := run(lanes, smp)
		ca.Add(int64(failA.Weight()))
		cb.Add(int64(failB.Weight()))
		failA.Or(failB)
		ce.Add(int64(failA.Weight()))
	})
	return int(ca.Load()), int(cb.Load()), int(ce.Load())
}

// ForEachChunk partitions samples into fixed-width lane chunks and runs
// fn once per chunk, fanned out over the available CPUs. Each invocation
// receives its lane count and a fresh AggregateSampler on the stream
// (seed, chunk index), making any experiment built on it a pure function
// of (samples, seed) — independent of GOMAXPROCS and scheduling. fn runs
// concurrently and must synchronize its own accumulation; ForEachChunk
// returns when every chunk has finished.
func ForEachChunk(samples int, seed uint64, fn func(lanes int, smp Sampler)) {
	chunks := (samples + chunkLanes - 1) / chunkLanes
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= chunks {
					return
				}
				lanes := chunkLanes
				if rem := samples - i*chunkLanes; rem < lanes {
					lanes = rem
				}
				fn(lanes, NewAggregateSampler(seed, uint64(i)^0x9e3779b97f4a7c15))
			}
		}()
	}
	wg.Wait()
}
