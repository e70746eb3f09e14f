package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the Go runtime's cumulative GC CPU time and total
// CPU time estimates.
func cpuSeconds() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		total = samples[1].Value.Float64()
	}
	return gc, total
}

// memSnap is the allocation and CPU state at one instant.
type memSnap struct {
	totalAlloc, mallocs uint64
	gcCPU, totalCPU     float64
	// procCPU is the CPU time the kernel charged the process, which
	// unlike totalCPU drops when the host runs someone else.
	procCPU float64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := memSnap{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs}
	s.gcCPU, s.totalCPU = cpuSeconds()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return s
}

// runtimeLayers records allocation and GC figures between two snapshots,
// per authenticated message.
func runtimeLayers(p *pass, a, b memSnap, msgs int64) {
	p.layer["runtime.alloc_bytes_per_msg"] = ratio(float64(b.totalAlloc-a.totalAlloc), float64(msgs))
	p.layer["runtime.allocs_per_msg"] = ratio(float64(b.mallocs-a.mallocs), float64(msgs))
	p.layer["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	p.meta["base.runtime_per_msg"] = map[string]any{"authenticated": msgs, "alloc_bytes": b.totalAlloc - a.totalAlloc, "allocs": b.mallocs - a.mallocs}
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// stealTicks returns the CPU ticks the host stole from this machine (time
// its CPUs were ready to run while the host ran someone else) and all CPU
// ticks, from /proc/stat; zeros where that is missing. Their deltas show
// whether a slow run shared its host.
func stealTicks() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:9] { // user .. steal; guest time is counted in user

		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
