package main

import "time"

// replay.go attributes what happens inside a window slide, which the
// benchmark cannot see from outside, by kernel replay: the layers a
// slide decoded are put through the same kernels the slide calls (plane
// pivot, support extraction, union-find decode, pool dispatch), timed
// one by one. The node numbering is the one documented on
// stream.Window: node (c, t) of a window is t*nc + c, oldest layer
// first.
//
// Only the first window of a stream is replayed. A later window also
// holds the carry defects its predecessor's commit cut, which cannot be
// seen from outside; without them the chains crossing the window's
// floor are orphaned and the decode is many times slower than the real
// one. The first slide has no carry and no retained clusters, so its
// replay is exactly the from-scratch decode the slide ran.

// maxReplayWindows bounds the replay to a couple of seconds.
const maxReplayWindows = 12

func newCapture(max int) *capture {
	return &capture{streams: make([]recordedStream, 0, max)}
}

// replayKernels replays the first window of up to maxReplayWindows
// recorded streams and fills the bits and decoder metrics, and
// stream.slide_vs_replay_ratio from the slide time streamMetrics
// reported.
func replayKernels(sess *streamSession, streams []recordedStream, r *report) {
	window, _, primal, dual := windowShape(sess)
	var transpose, support, decode time.Duration
	var sectorWindows, laneWindows, defects, sweeps, edges int
	var poolShots []decodeShot
	ufs := [2]*unionFind{newUnionFind(primal), newUnionFind(dual)}
	for i := range streams {
		st := &streams[i]
		if len(st.X) < window || sectorWindows >= 2*maxReplayWindows {
			continue
		}
		for sector, layers := range [2][][]vec{st.X, st.Z} {
			var ordered []vec
			for _, layer := range layers[:window] {
				ordered = append(ordered, layer...)
			}
			syn := newVecs(st.lanes, len(ordered))
			t0 := time.Now()
			transposePlanes(syn, ordered)
			transpose += time.Since(t0)
			sectorWindows++
			uf := ufs[sector]
			for lane := 0; lane < st.lanes; lane++ {
				t0 = time.Now()
				def := syn[lane].AppendSupport(nil)
				t1 := time.Now()
				uf.Decode(def, func(int) { edges++ })
				t2 := time.Now()
				support += t1.Sub(t0)
				decode += t2.Sub(t1)
				laneWindows++
				defects += len(def)
				sweeps += uf.GrowthSweeps()
				if sector == 0 && len(poolShots) < 64 {
					poolShots = append(poolShots, decodeShot{Defects: def})
				}
			}
		}
	}
	if laneWindows == 0 {
		return
	}
	lw := float64(laneWindows)
	r.Metrics["bits.transpose_ns_per_window"] = float64(transpose.Nanoseconds()) / float64(sectorWindows)
	r.Metrics["bits.support_ns_per_lane_window"] = float64(support.Nanoseconds()) / lw
	r.Metrics["decoder.uf_decode_us_per_shot_window"] = float64(decode.Nanoseconds()) / lw / 1e3
	r.Metrics["decoder.uf_defects_per_shot_window"] = float64(defects) / lw
	r.Metrics["decoder.uf_growth_sweeps_per_shot"] = float64(sweeps) / lw
	r.Metrics["decoder.uf_corr_edges_per_shot"] = float64(edges) / lw

	// Pool dispatch: the same 64 shots through a worker pool, against
	// 64 shots with nothing to decode.
	pool := newDecodePool()
	defer pool.Close()
	roundTrip := func(shots []decodeShot) float64 {
		const reps = 200
		bat := newDecodeBatch(len(shots))
		var times []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := pool.ResubmitOn(primal, bat, shots); err != nil {
				r.fail("pool replay: %v", err)
				return 0
			}
			bat.Wait()
			times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return median(times)
	}
	r.Metrics["decoder.pool_roundtrip_us_per_batch"] = roundTrip(poolShots)
	r.Metrics["decoder.pool_dispatch_overhead_us"] = roundTrip(make([]decodeShot, len(poolShots)))

	// A slide decodes both sectors of every lane.
	perShotSlideUs := 2 * float64((transpose + support + decode).Nanoseconds()) / lw / 1e3
	r.Metrics["stream.slide_vs_replay_ratio"] = r.Metrics["stream.slide_us_per_shot"] / perShotSlideUs
}
