package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// userHZ is the tick rate of /proc/stat counters (USER_HZ, 100 on every
// Linux architecture Go supports).
const userHZ = 100

// stealWarnShare is the share of a rep's CPU-seconds above which host steal
// is reported: the rep is kept, but its times measure the host too.
const stealWarnShare = 0.02

// hostWindow names the machine a run measured.
func hostWindow() string {
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// stealSeconds reads the machine-wide steal time from /proc/stat. It
// returns 0 where the file is unavailable: steal is then unobservable, not
// absent, which the rep line says by printing it as 0.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return 0
			}
			return ticks / userHZ
		}
	}
	return 0
}

// cpuSeconds returns this process's user+system CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// peakRSSMiB returns this process's peak resident set size (VmHWM). The
// rusage maxrss of a child is no use here: a child started by os/exec
// shares its parent's memory until exec, and the kernel folds the
// parent's peak into the child's maxrss.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
