package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rtSnap is a point-in-time reading of the Go runtime counters the
// runtime layer reports.
type rtSnap struct {
	gcCycles  uint64
	gcCPU     float64
	totalCPU  float64
	allocated uint64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readRT() (rtSnap, uint64) {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{gcCycles: u(0), gcCPU: f(1), totalCPU: f(2), allocated: u(3)}, u(4)
}

// rtWindow measures the runtime layer over a measured window: GC cycles,
// the GC share of CPU time, bytes allocated and the peak live heap,
// sampled every few milliseconds.
type rtWindow struct {
	start rtSnap
	stop  chan struct{}
	wg    sync.WaitGroup

	mu   sync.Mutex
	peak uint64
}

func startRT() *rtWindow {
	w := &rtWindow{stop: make(chan struct{})}
	w.start, w.peak = readRT()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				_, heap := readRT()
				w.mu.Lock()
				w.peak = max(w.peak, heap)
				w.mu.Unlock()
			}
		}
	}()
	return w
}

// end stops the sampler and stores the runtime.* metrics into m.
func (w *rtWindow) end(m map[string]float64) {
	close(w.stop)
	w.wg.Wait()
	end, heap := readRT()
	w.peak = max(w.peak, heap)
	m["runtime.gc_cycles"] = float64(end.gcCycles - w.start.gcCycles)
	m["runtime.gc_cpu_frac"] = ratio(end.gcCPU-w.start.gcCPU, end.totalCPU-w.start.totalCPU)
	m["runtime.alloc_mb"] = float64(end.allocated-w.start.allocated) / (1 << 20)
	m["runtime.heap_peak_mb"] = float64(w.peak) / (1 << 20)
}

// resetPeakRSS restarts the kernel's peak resident set size count from
// the current resident set, so a peak can be read per measured stretch.
// Best effort: where /proc/self/clear_refs is not writable the peak stays
// the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB,
// falling back to the runtime's total mapped memory where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// layerDefaults sets every per-layer metric a workload does not exercise
// to zero: a layer that does no work reports a zero count and time.
func layerDefaults(m map[string]float64, def []metricDef) {
	for _, d := range def {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}

// setupMedian brings a workload's stack up with bringUp, tearing down
// all but the last with tearDown, until it has done so at least
// setupMinRepeats times and for at least setupMinTime, and returns the
// median bring-up time in seconds and the number of bring-ups. A
// bring-up of a few milliseconds is noisy, so cheap set-ups are repeated
// more often.
func setupMedian(bringUp func() error, tearDown func() error) (float64, int, error) {
	var times []float64
	var total time.Duration
	for {
		runtime.GC()
		start := time.Now()
		if err := bringUp(); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		times = append(times, d.Seconds())
		total += d
		if len(times) >= setupMinRepeats && total >= setupMinTime {
			return median(times), len(times), nil
		}
		if err := tearDown(); err != nil {
			return 0, 0, err
		}
	}
}
