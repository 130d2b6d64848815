package main

import (
	"bufio"
	"errors"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples is a list of measurements of one quantity.
type samples []float64

// quantile returns the nearest-rank q-quantile, or 0 for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	k := int(math.Ceil(q*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return c[k]
}

func (s samples) median() float64 { return s.quantile(0.5) }

// mean sums in sorted order, so it does not depend on the order concurrent
// recorders added the samples in.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	t := 0.0
	for _, v := range c {
		t += v
	}
	return t / float64(len(c))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; where
// /proc is absent it falls back to the Go runtime's total OS memory.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS returns the heap's free pages to the OS and restarts the
// process's peak resident set (VmHWM) from what it holds now, so that
// peakRSSMB covers what follows and not the set-up's transients. Where
// /proc/self/clear_refs is absent it does nothing.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// gcSnapshot records the runtime counters the runtime.* metrics difference.
type gcSnapshot struct {
	pauseNs, cycles, allocBytes uint64
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{pauseNs: ms.PauseTotalNs, cycles: uint64(ms.NumGC), allocBytes: ms.TotalAlloc}
}
