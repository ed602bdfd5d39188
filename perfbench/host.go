package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint names the host and build a result was measured on, so a
// record is never compared against one from different hardware.
type fingerprint struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GOARCH       string `json:"goarch"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	GitRev       string `json:"git_rev"`
	SourceDigest string `json:"source_sha256"`
	Kernels      string `json:"kernels"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GitRev:       gitRev(),
		SourceDigest: sourceDigest("."),
		Kernels:      kernels,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the checkout's commit, or "none" where the benchmark runs
// from an exported tree; the source digest identifies the code there.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden and build directories) by path and content.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".s") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// vmHWM reads a process's peak resident set size in MB.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSetups runs setup n times and returns the median duration, so one
// slow set-up (a page-cache miss, a noisy neighbour) does not move
// setup_s. The durations are scaled to the reference host speed by the
// mean factor of the calibrations taken before and after each set-up
// (calib.go). The first repetition is timed from process start, less
// its calibration, the others from their own start. Each set-up but
// the last, which the run keeps, is then torn down by the discard
// function it returned (nil: nothing to tear down), outside the timing.
func timeSetups(n int, setup func() (discard func() error, err error)) (float64, error) {
	var ds []float64
	var cal []calSample
	for i := 0; i < n; i++ {
		c0 := time.Now()
		cal = append(cal, calSample{c0, calibrate()})
		t0 := time.Now()
		if i == 0 {
			t0 = procStart.Add(t0.Sub(c0))
		}
		discard, err := setup()
		if err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		cal = append(cal, calSample{time.Now(), calibrate()})
		if i < n-1 && discard != nil {
			if err := discard(); err != nil {
				return 0, err
			}
		}
	}
	f := factorAt(cal, time.Time{}, len(cal))
	fmt.Printf("set-up: %d set-ups, unscaled median %.6g s, mean speed factor %.4f over %d calibrations\n", n, median(ds), f, len(cal))
	return median(ds) * f, nil
}
