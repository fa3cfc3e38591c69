package main

import (
	"runtime"
	"syscall"
	"time"
)

// rusage reads the process's resource usage (zero if the call fails).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a failure leaves ru zero: the metric reads 0 and is rejected
	return ru
}

// cpuTime returns the user+system CPU time this process has used.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark (what
// /proc/self/status calls VmHWM; Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// memCounters is the slice of runtime.MemStats the runtime metrics use.
type memCounters struct {
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

func readMemCounters() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// runtimeMetrics reports allocation and collector activity between two
// readings, over `rounds` rounds of work.
func runtimeMetrics(r *report, m0, m1 memCounters, rounds float64) {
	r.Metrics["runtime.allocs_per_round"] = float64(m1.mallocs-m0.mallocs) / rounds
	r.Metrics["runtime.gc_cycles"] = float64(m1.gcs - m0.gcs)
	r.Metrics["runtime.gc_pause_total_ms"] = float64(m1.pauseNs-m0.pauseNs) / 1e6
}
