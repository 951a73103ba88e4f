package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified. Empty input gives 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest fifth: it
// averages like a mean but, like a median, one pathological value does
// not move it.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 5
	return mean(s[cut : len(s)-cut])
}

// fastest returns the least of xs after the first, which is a cold run.
// Set-up is timed this way, not by the median: on a machine whose speed
// shifts between two levels for fractions of a second at a time, the
// median of repeated set-ups follows the share of time spent at each level
// and varied by half from run to run, while the fastest repetition varied
// by a few percent.
func fastest(xs []float64) float64 {
	if len(xs) > 1 {
		xs = xs[1:]
	}
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// growth is the mean of the last tenth of xs over the mean of its first
// tenth: 1 for a flat series, >1 when later samples cost more.
func growth(xs []float64) float64 {
	n := len(xs) / 10
	if n == 0 {
		return 0
	}
	first := mean(xs[:n])
	if first <= 0 {
		return 0
	}
	return mean(xs[len(xs)-n:]) / first
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler tracks the peak of the heap in use (live and not yet
// collected objects) while it runs. It reads runtime/metrics, which does
// not stop the world, every few milliseconds.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: heapNow()}
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.done)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			h.observe()
		}
	}
}

func (h *heapSampler) observe() {
	v := heapNow()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// peakMB returns the peak so far in MiB.
func (h *heapSampler) peakMB() float64 {
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	h.observe()
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
