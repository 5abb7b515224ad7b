package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// envRecord is the machine description every result carries, so a number
// is never read without knowing what it ran on.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Kernel     string `json:"kernel"`
}

func readEnv(root string) envRecord {
	e := envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		Kernel:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					e.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	// The driver's checkout is not a git repository; the SHA is then unknown
	// (and git must not go looking for a repository above the checkout).
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
	}
	return e
}

// clockTick is the kernel's USER_HZ; 100 on every Linux platform Go runs on.
const clockTick = 100

// procCPU returns user+system CPU seconds consumed so far by pid (the
// harness itself for pid 0), read from /proc so children are measured the
// same way as the harness.
func procCPU(pid int) float64 {
	path := "/proc/self/stat"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, i.e. index 11 and 12 after ") ".
	_, rest, ok := strings.Cut(string(data), ") ")
	if !ok {
		return 0
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTick
}

// procPeakRSS returns pid's peak resident set (VmHWM) in MB (pid 0 = self).
func procPeakRSS(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostCPU is one sample of the aggregate "cpu" line of /proc/stat, in ticks.
type hostCPU struct{ total, steal float64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i := 1; i < len(f) && i <= 8; i++ { // user..steal; guest is already in user
		v, _ := strconv.ParseFloat(f[i], 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealRatio is the share of host CPU time the hypervisor took between two
// samples.
func stealRatio(before, after hostCPU) float64 {
	if d := after.total - before.total; d > 0 {
		return (after.steal - before.steal) / d
	}
	return 0
}

var calibSink uint64

// calibProbe times a fixed integer spin loop: the same instructions every
// time, so a change in it is the machine, not the program. The loop keeps
// eight independent multiply-add chains in flight, so it is bound by how
// many instructions the core issues per cycle. That is what a neighbour on
// the core's other hardware thread takes away: on the machine this was
// sized on the loop swings between 9.5 and 20 ms within a second, while a
// single dependent chain of the same length never moves.
func calibProbe() float64 {
	start := time.Now()
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 5_000_000; i++ {
		a = a*3 + 1
		b = b*5 + 2
		c = c*7 + 3
		d = d*9 + 4
		e = e*11 + 5
		f = f*13 + 6
		g = g*15 + 7
		h = h*17 + 8
	}
	calibSink = a + b + c + d + e + f + g + h
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// calibProbes is how many probes are taken before and again after a run.
const calibProbes = 8

func calibrate() []float64 {
	out := make([]float64, calibProbes)
	for i := range out {
		out[i] = calibProbe()
	}
	return out
}

// membwMS times a fixed streaming pass (a[i] = b[i] + 3·c[i] over three
// 32 MB arrays, split across every core; median of five): the neighbours'
// pressure on the shared cache and memory bus, which the spin loop cannot see.
func membwMS() float64 {
	const n = 4 << 20 // float64s per array: 32 MB each, 96 MB in all, beyond the shared cache
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), 1
	}
	workers := runtime.NumCPU()
	times := make([]float64, 5)
	for rep := range times {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for pass := 0; pass < 2; pass++ {
					for i := lo; i < hi; i++ {
						a[i] = b[i] + 3*c[i]
					}
				}
			}(w*n/workers, (w+1)*n/workers)
		}
		wg.Wait()
		times[rep] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	calibSink += uint64(a[n-1])
	return median(times)
}

// noiseRecord says how far a run can be trusted on a shared machine: the
// hypervisor's steal share, the spin-loop probes before and after the run,
// and the streaming pass after it (its 96 MB must not count toward the
// workload's peak memory).
type noiseRecord struct {
	StealRatio float64   `json:"host.steal_ratio"`
	CalibMS    []float64 `json:"host.calib_probes_ms"` // before the run, then after
	MemBWMS    float64   `json:"host.membw_ms"`
	Noisy      bool      `json:"noisy"`
}

const (
	// noisyStealShare is the steal share above which a run is printed as noisy.
	noisyStealShare = 0.10
	// noisyCalibRatio is how far the slowest probe may be from the fastest.
	// The probes are identical, so on an undisturbed machine they agree to a
	// few percent; a neighbour on the sibling hardware thread doubles the
	// ones it overlaps, and takes no steal time doing it.
	noisyCalibRatio = 1.5
)

// judge fills in the verdict from the samples.
func (n *noiseRecord) judge() {
	lo, hi := n.CalibMS[0], n.CalibMS[0]
	for _, v := range n.CalibMS {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	n.Noisy = n.StealRatio > noisyStealShare || hi > noisyCalibRatio*lo
}
