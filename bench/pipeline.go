package main

import (
	"sync"
	"sync/atomic"
)

// pipeline.go is the streaming pipeline rebuilt from public calls, one
// span round each: the traced stand-in for stream.CodeCircuitMemory's
// inner loop on the mc-* workloads, and the bare-decoder baseline the
// serving workloads' server overhead is measured against.

// feed hands a decoder its input: live from a sampler (mc-*) or replayed
// from a recorded session (serving workloads).
type feed interface {
	next(t int) (layerX, layerZ []vec)
	closing() (layerX, layerZ []vec)
	windings() [4]vec // pX1, pX2, pZ1, pZ2 of the injected errors
}

// liveFeed draws layers from a source, timing each draw.
type liveFeed struct {
	src    layerSource
	x, z   []vec
	lanes  int
	tr     *tracer
	parent int
	op     int64
}

func (f *liveFeed) next(int) ([]vec, []vec) {
	s := f.tr.begin("surface.next_layers", f.parent, f.op)
	f.src.NextLayers(f.x, f.z)
	f.tr.end(s)
	return f.x, f.z
}

func (f *liveFeed) closing() ([]vec, []vec) {
	s := f.tr.begin("surface.close_layers", f.parent, f.op)
	f.src.CloseLayers(f.x, f.z)
	f.tr.end(s)
	return f.x, f.z
}

func (f *liveFeed) windings() [4]vec {
	var w [4]vec
	for i := range w {
		w[i] = newVec(f.lanes)
	}
	f.src.Windings(w[0], w[1], w[2], w[3])
	return w
}

// streamCounts is the work the traced pipeline did, the denominators of
// the stream and surface metrics.
type streamCounts struct {
	shots        atomic.Int64 // lanes over operations
	shotRounds   atomic.Int64 // lanes x rounds pushed
	fillShots    atomic.Int64 // lanes over pushes that only filled the window
	slideShots   atomic.Int64 // lanes over pushes that slid it first
	ingested     atomic.Int64 // defects in the layers handed to Push and Finish
	observed     atomic.Int64 // Decoder.DefectsObserved after Finish
	footprint    atomic.Int64 // Decoder.FootprintBytes, summed over operations
	logicalFails atomic.Int64
}

// capture keeps copies of the first window of layers of a few operations
// so that it can be replayed through the kernels (replay.go).
type capture struct {
	mu      sync.Mutex
	streams []recordedStream // capacity fixed by newCapture: appends never move it
}

// recordedStream is the input of one operation: rounds x checks planes
// of lane bits per sector.
type recordedStream struct {
	X, Z  [][]vec
	lanes int
}

func cloneVecs(vs []vec) []vec {
	out := make([]vec, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

func weight(vs []vec) int {
	n := 0
	for _, v := range vs {
		n += v.Weight()
	}
	return n
}

// runStream pushes one operation's rounds through a fresh decoder of
// sess, finishes it, and checks the committed frames against the
// injected errors' logical parities. It returns the frames.
func runStream(tr *tracer, parent int, op int64, m model, sess *streamSession, f feed, rounds, lanes int, cnt *streamCounts, keep *capture) (framesX, framesZ []vec) {
	window, _, _, _ := windowShape(sess)
	s := tr.begin("stream.new_decoder", parent, op)
	d := sess.NewDecoder(lanes)
	tr.end(s)

	var rec *recordedStream
	if keep != nil {
		keep.mu.Lock()
		if len(keep.streams) < cap(keep.streams) {
			keep.streams = append(keep.streams, recordedStream{lanes: lanes})
			rec = &keep.streams[len(keep.streams)-1]
		}
		keep.mu.Unlock()
	}
	ingested := 0
	for t := 0; t < rounds; t++ {
		x, z := f.next(t)
		ingested += weight(x) + weight(z)
		if rec != nil && t < window {
			rec.X = append(rec.X, cloneVecs(x))
			rec.Z = append(rec.Z, cloneVecs(z))
		}
		name, slot := "stream.push_fill", &cnt.fillShots
		if d.Filled() == window {
			name, slot = "stream.push_slide", &cnt.slideShots
		}
		s := tr.begin(name, parent, op)
		d.Push(x, z)
		tr.end(s)
		slot.Add(int64(lanes))
	}
	x, z := f.closing()
	ingested += weight(x) + weight(z)
	s = tr.begin("stream.finish", parent, op)
	d.Finish(x, z)
	tr.end(s)

	framesX, framesZ = d.Corrections()
	s = tr.begin("surface.logical", parent, op)
	fails := logicalFailures(m, f.windings(), framesX, framesZ)
	tr.end(s)

	cnt.shots.Add(int64(lanes))
	cnt.shotRounds.Add(int64(lanes * rounds))
	cnt.ingested.Add(int64(ingested))
	cnt.observed.Add(int64(d.DefectsObserved()))
	cnt.footprint.Add(int64(d.FootprintBytes()))
	cnt.logicalFails.Add(int64(fails))
	return framesX, framesZ
}

// logicalFailures counts the lanes whose committed frames leave a
// logical error in either sector: the frame's logical parities differ
// from those of the errors the source injected.
func logicalFailures(m model, wind [4]vec, framesX, framesZ []vec) int {
	fails := 0
	for lane := range framesX {
		x1, x2 := m.Code.LogicalParity(false, framesX[lane])
		z1, z2 := m.Code.LogicalParity(true, framesZ[lane])
		if x1 != wind[0].Get(lane) || x2 != wind[1].Get(lane) ||
			z1 != wind[2].Get(lane) || z2 != wind[3].Get(lane) {
			fails++
		}
	}
	return fails
}

// streamMetrics turns the spans and counts of a traced pipeline into
// the surface and stream metrics. root names the per-operation span the
// pipeline's spans hang under.
func streamMetrics(tr *tracer, root string, m model, cnt *streamCounts, r *report) {
	tot := tr.totals()
	ns := func(name string) float64 { return float64(tot[name].Total.Nanoseconds()) }
	per := func(num float64, den int64) float64 {
		if den == 0 {
			return 0
		}
		return num / float64(den)
	}
	all := ns(root)
	source := ns("surface.new_source") + ns("surface.next_layers") + ns("surface.close_layers")
	name := "surface.source_phenom_ns_per_shot_round"
	if m.Circuit {
		name = "surface.source_circuit_ns_per_shot_round"
	}
	if tot["surface.next_layers"].Count > 0 {
		r.Metrics[name] = per(ns("surface.next_layers"), cnt.shotRounds.Load())
	}
	r.Metrics["surface.source_share"] = per(source, int64(all))
	r.Metrics["surface.logical_ns_per_shot"] = per(ns("surface.logical"), cnt.shots.Load())
	r.Metrics["stream.push_fill_ns_per_shot_round"] = per(ns("stream.push_fill"), cnt.fillShots.Load())
	r.Metrics["stream.slide_us_per_shot"] = per(ns("stream.push_slide"), cnt.slideShots.Load()) / 1e3
	r.Metrics["stream.finish_us_per_shot"] = per(ns("stream.finish"), cnt.shots.Load()) / 1e3
	r.Metrics["stream.slide_share"] = per(ns("stream.push_slide"), int64(all))
	r.Metrics["stream.redecode_ratio"] = per(float64(cnt.observed.Load()), cnt.ingested.Load())
	r.Metrics["stream.footprint_bytes_per_lane"] = per(float64(cnt.footprint.Load()), cnt.shots.Load())
	r.Metrics["trace.chunk_coverage_frac"] = 1 - per(float64(tot[root].Self.Nanoseconds()), int64(all))
	r.Metrics["quality.logical_fail_rate"] = per(float64(cnt.logicalFails.Load()), cnt.shots.Load())
}
