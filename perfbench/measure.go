package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return ys[n/2]
	default:
		return (ys[n/2-1] + ys[n/2]) / 2
	}
}

// cpuSelf returns the process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOf returns the CPU time of process pid: the sum of its threads'
// run times from /proc/<pid>/task/*/schedstat, in nanoseconds (the tick
// counts of /proc/<pid>/stat move in 10 ms steps). A thread that has exited
// no longer counts; Go programs keep their threads.
func cpuOf(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, fmt.Errorf("no threads of process %d", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s", t)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMiB returns VmHWM of process pid ("self" for this process) in MiB.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
