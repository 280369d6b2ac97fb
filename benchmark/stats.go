package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of vs (mean of the two middle values
// for even counts); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileSorted reads quantile q (0..1) from an ascending slice using
// the nearest-rank rule, so the answer is always a value that occurred.
func quantileSorted(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// latencySet holds per-operation latencies in nanoseconds, split into the
// run's segments so a percentile can be reported as the median of the
// per-segment percentiles: one stalled segment (a GC cycle, a scheduler
// hiccup of the sandbox) then moves one of the values the median is taken
// over instead of the reported number.
type latencySet struct {
	segs [][]int64
}

func newLatencySet(segments, perSegment int) *latencySet {
	l := &latencySet{segs: make([][]int64, segments)}
	for i := range l.segs {
		l.segs[i] = make([]int64, 0, perSegment)
	}
	return l
}

func (l *latencySet) add(seg int, d time.Duration) {
	l.segs[seg] = append(l.segs[seg], int64(d))
}

// merge appends o's samples segment by segment (two tenants' samples of
// the same segment were taken over the same stretch of wall time).
func (l *latencySet) merge(o *latencySet) {
	for i := range o.segs {
		l.segs[i] = append(l.segs[i], o.segs[i]...)
	}
}

func (l *latencySet) count() int {
	n := 0
	for _, s := range l.segs {
		n += len(s)
	}
	return n
}

// quantileUs reports quantile q in microseconds as the median over the
// non-empty segments of each segment's own quantile. It sorts the
// segments in place: sample order carries no information once the run is
// over.
func (l *latencySet) quantileUs(q float64) float64 {
	var per []float64
	for _, s := range l.segs {
		if len(s) == 0 {
			continue
		}
		slices.Sort(s)
		per = append(per, float64(quantileSorted(s, q))/1e3)
	}
	return median(per)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// goStats is a runtime.MemStats delta over the measured phase plus the
// goroutine high-water mark a sampler saw during it.
type goStats struct {
	allocBytes uint64
	mallocs    uint64
	gcPause    time.Duration
	heapInuse  uint64
	goroutines int
}

// goSampler polls the goroutine count at 10 Hz while a phase runs and
// takes the MemStats delta around it.
type goSampler struct {
	before runtime.MemStats
	stop   chan struct{}
	done   chan struct{}
	peak   int
	// poll, when set, runs on every tick (the gateway snapshot poller
	// shares the sampler's ticker instead of starting its own).
	poll func()
}

func startGoSampler(poll func()) *goSampler {
	s := &goSampler{stop: make(chan struct{}), done: make(chan struct{}), poll: poll}
	runtime.ReadMemStats(&s.before)
	s.peak = runtime.NumGoroutine()
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > s.peak {
					s.peak = n
				}
				if s.poll != nil {
					s.poll()
				}
			}
		}
	}()
	return s
}

func (s *goSampler) finish() goStats {
	close(s.stop)
	<-s.done
	if n := runtime.NumGoroutine(); n > s.peak {
		s.peak = n
	}
	if s.poll != nil {
		s.poll()
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return goStats{
		allocBytes: after.TotalAlloc - s.before.TotalAlloc,
		mallocs:    after.Mallocs - s.before.Mallocs,
		gcPause:    time.Duration(after.PauseTotalNs - s.before.PauseTotalNs),
		heapInuse:  after.HeapInuse,
		goroutines: s.peak,
	}
}
