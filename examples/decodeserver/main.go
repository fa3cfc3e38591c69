// Decode serving: many logical qubits, one decoder fleet. A
// fault-tolerant machine runs every logical qubit's syndrome stream
// through classical decoding continuously, so the deployment shape is a
// long-lived server: sessions open and close while a shared worker pool
// decodes all of them, ingest queues bound the memory between producer
// and decoder, and committed Pauli frames flow back out. Here four
// tenants (two phenomenological, two circuit-level) stream over the
// wire protocol through in-memory pipes, and the server's snapshot
// reports per-session commit latency on the way out.
package main

import (
	"fmt"
	"net"
	"sync"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/server"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

func main() {
	fmt.Println("== multi-tenant streaming decode server ==")
	srv := server.New(server.Config{QueueDepth: 8})

	// Four tenants over the wire protocol: syndrome layers in, frames out.
	const rounds = 48
	type tenant struct {
		name string
		cfg  server.SessionConfig
		feed spacetime.LayerFeed
	}
	l4, l6 := toric.Cached(4), toric.Cached(6)
	tenants := []tenant{
		{"phenom L=4 p=2%", server.PhenomenologicalCode(l4, 64, 0.02, 0.02),
			surface.NewLayerSource(l4, 0.02, 0.02, 64, frame.NewAggregateSampler(11, 5))},
		{"phenom L=6 p=1%", server.PhenomenologicalCode(l6, 64, 0.01, 0.01),
			surface.NewLayerSource(l6, 0.01, 0.01, 64, frame.NewAggregateSampler(12, 5))},
		{"circuit L=4 eps=0.3%", server.CircuitLevelCode(l4, 64, noise.Uniform(0.003)),
			surface.NewCircuitSource(l4, noise.Uniform(0.003), 64, frame.NewAggregateSampler(13, 5))},
		{"circuit L=6 eps=0.2%", server.CircuitLevelCode(l6, 64, noise.Uniform(0.002)),
			surface.NewCircuitSource(l6, noise.Uniform(0.002), 64, frame.NewAggregateSampler(14, 5))},
	}
	fmt.Printf("\n%d tenants stream %d rounds of difference syndromes each:\n", len(tenants), rounds)
	var wg sync.WaitGroup
	var once sync.Once
	midFlight := make(chan []server.SessionStats, 1)
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn tenant) {
			defer wg.Done()
			client, serverSide := net.Pipe()
			go srv.ServeConn(serverSide)
			conn := server.Dial(client)
			if err := conn.Open(tn.cfg); err != nil {
				panic(err)
			}
			nc := tn.cfg.Code.Checks()
			layerX := bits.NewVecs(nc, tn.cfg.Lanes)
			layerZ := bits.NewVecs(nc, tn.cfg.Lanes)
			for r := 0; r < rounds; r++ {
				tn.feed.NextLayers(layerX, layerZ)
				if err := conn.Round(layerX, layerZ); err != nil {
					panic(err)
				}
				if r == rounds/2 {
					once.Do(func() { midFlight <- srv.Snapshot() })
				}
			}
			tn.feed.CloseLayers(layerX, layerZ)
			res, err := conn.Finish(layerX, layerZ)
			if err != nil {
				panic(err)
			}
			weight := 0
			for lane := range res.FramesX {
				weight += res.FramesX[lane].Weight() + res.FramesZ[lane].Weight()
			}
			fmt.Printf("  %-22s %d/%d rounds committed, frame weight %d across %d lanes\n",
				tn.name, res.Committed, res.Rounds, weight, len(res.FramesX))
		}(tn)
	}
	wg.Wait()

	fmt.Println("\nmid-flight server snapshot (taken while the wire tenants streamed):")
	fmt.Printf("  %-4s %-8s %-7s %-9s %-9s %-9s %-10s %-10s\n",
		"id", "model", "window", "rounds", "committed", "density", "p50 lat", "p99 lat")
	for _, st := range <-midFlight {
		model := "phenom"
		if st.Circuit {
			model = "circuit"
		}
		fmt.Printf("  %-4d %-8s %-7d %-9d %-9d %-9.4f %-10v %-10v\n",
			st.ID, model, st.Window, st.Rounds, st.Committed, st.DefectDensity,
			st.Latency.P50, st.Latency.P99)
	}

	srv.Shutdown()
	fmt.Println("\nserver drained: every session's committed frames were delivered")
	fmt.Println("\n'the classical decode must keep pace with the quantum clock for")
	fmt.Println(" every logical qubit at once — a decoder is a service, not a call'")
}
