package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/mathx"
)

// cpuSeconds returns the process's user+system CPU time. Host cost is
// measured in CPU time, not wall time: on a shared VM the hypervisor's
// steal stretches wall time by tens of percent from run to run, while
// the CPU a process actually received varies by a few percent.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "bench: getrusage: %v\n", err)
		os.Exit(2)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// allocCounters is a snapshot of the process's cumulative allocation
// counters.
type allocCounters struct{ mallocs, bytes uint64 }

func readAllocs() allocCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounters{ms.Mallocs, ms.TotalAlloc}
}

// heapLiveMB is the live heap after forced collections, in MB (10^6
// bytes). After one collection the reading was sometimes tens of MB
// above the usual value; a second collection makes it repeat. Peak RSS
// is not used: it depends on when the collector ran.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

// parseProcStat reads the aggregate cpu line of a /proc/stat image:
// user nice system idle iowait irq softirq steal [guest guest_nice].
// Guest time is already counted in user and nice, so it is left out of
// the total.
func parseProcStat(data []byte) (cpuStat, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		if len(fields) < 9 {
			return cpuStat{}, fmt.Errorf("proc/stat: cpu line has %d fields, want at least 9", len(fields))
		}
		var st cpuStat
		for i, f := range fields[1:9] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("proc/stat: field %d: %w", i+1, err)
			}
			st.total += v
			if i == 7 {
				st.steal = v
			}
		}
		return st, nil
	}
	return cpuStat{}, fmt.Errorf("proc/stat: no aggregate cpu line")
}

// readProcStat samples /proc/stat; ok is false where it does not exist.
func readProcStat() (cpuStat, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	st, err := parseProcStat(data)
	return st, err == nil
}

// stealPct is the share of all CPU ticks between two samples that the
// hypervisor stole, in percent.
func stealPct(from, to cpuStat) float64 {
	if to.total <= from.total {
		return 0
	}
	return 100 * float64(to.steal-from.steal) / float64(to.total-from.total)
}

// tailCandidates are the percentiles a tail is reported at, highest
// first. The top one is p90: on a shared 2-vCPU host the p95 and p99 of
// host-timed samples move from run to run with where garbage-collection
// cycles and hypervisor steal happen to land.
var tailCandidates = []float64{90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 0 when none does. A percentile
// with fewer samples beyond it is decided by a handful of values and
// moves from run to run on noise alone.
func tailPercentile(n int, candidates []float64) float64 {
	for _, p := range candidates {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// percentile is the p-th percentile (0..100) of a sample, linearly
// interpolated; the input is not modified.
func percentile(sample []float64, p float64) float64 {
	return mathx.Quantile(sample, p/100)
}

// quartiles returns the first quartile, median and third quartile of a
// set of run values, computed as Python's statistics.quantiles(values,
// n=4) does (the default exclusive method), so that spreads printed
// here match spreads computed from the printed values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	q := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		q = append(q, (s[j-1]*(n-delta)+s[j]*delta)/n)
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of a set of run values as a share
// of their median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// median of a non-empty sample.
func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}
