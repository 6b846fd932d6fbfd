package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's CPU time so far: user plus system, every thread,
// the garbage collector included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const liveHeapMetric = "/gc/heap/live:bytes"

// heapPeak tracks the largest live heap any garbage collection found while it
// was armed. A finalizer on a sentinel object re-arms itself after every
// collection and reads the live heap the collection just marked, so the
// watcher adds no goroutine and no sampling of its own.
type heapPeak struct {
	mu     sync.Mutex
	peak   uint64
	armed  bool
	sample []metrics.Sample
}

func newHeapPeak() *heapPeak {
	h := &heapPeak{sample: []metrics.Sample{{Name: liveHeapMetric}}}
	h.rearm()
	return h
}

func (h *heapPeak) rearm() {
	sentinel := new([16]byte)
	runtime.SetFinalizer(sentinel, func(*[16]byte) {
		h.mu.Lock()
		if h.armed {
			h.observeLocked()
		}
		h.mu.Unlock()
		h.rearm()
	})
}

func (h *heapPeak) observeLocked() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// start forgets earlier peaks and begins recording.
func (h *heapPeak) start() {
	h.mu.Lock()
	h.peak, h.armed = 0, true
	h.mu.Unlock()
}

// stop collects once more, so what the run still holds counts, and returns
// the peak live heap in bytes since start.
func (h *heapPeak) stop() uint64 {
	runtime.GC()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked()
	h.armed = false
	return h.peak
}

// allocated is the cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
