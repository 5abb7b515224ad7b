package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parma/internal/fleet"
	"parma/internal/serve"
)

// servedFleet is the real system under test for the serve workloads: two
// single-threaded parmad workers behind one parma-router with the affinity
// policy, all on loopback. Everything is observed from outside: HTTP
// replies and headers, /healthz, and /proc/<pid>.
type servedFleet struct {
	dir     string
	procs   []*exec.Cmd // workers first, router last
	workers []string    // worker base URLs, index = ring name w<i>
	router  string      // router base URL
	client  *http.Client
}

const (
	fleetWorkers   = 2
	bootTimeout    = 15 * time.Second
	drainTimeout   = 10 * time.Second
	requestTimeout = 60 * time.Second
)

func workerName(i int) string { return "w" + strconv.Itoa(i) }

// buildBinaries compiles the two daemons from the repository root into dir.
// It runs before any clock starts.
func buildBinaries(root, dir string) error {
	for _, name := range []string{"parmad", "parma-router"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %v\n%s", name, err, out)
		}
	}
	return nil
}

// bootFleet starts the workers and the router on free loopback ports and
// returns once the router's /healthz reports every worker alive. On any
// failure it stops whatever it started.
func bootFleet(cfg config) (f *servedFleet, err error) {
	dir, err := os.MkdirTemp(cfg.binDir, "fleet-")
	if err != nil {
		return nil, fmt.Errorf("fleet run directory: %w", err)
	}
	f = &servedFleet{dir: dir, client: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
	defer func() {
		if err != nil {
			f.stop()
			f = nil
		}
	}()

	var specs []string
	for i := 0; i < fleetWorkers; i++ {
		addrFile := filepath.Join(dir, workerName(i)+".addr")
		// One compute worker on one OS thread each: two workers fill the
		// two cores, and kernel-level parallelism inside a solve is off.
		if err := f.start(workerName(i), []string{"GOMAXPROCS=1"}, filepath.Join(cfg.binDir, "parmad"),
			"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-workers", "1", "-log-format", "json"); err != nil {
			return f, err
		}
		addr, err := waitAddr(addrFile)
		if err != nil {
			return f, fmt.Errorf("%s: %w\n%s", workerName(i), err, f.logTail(workerName(i)))
		}
		f.workers = append(f.workers, "http://"+addr)
		specs = append(specs, workerName(i)+"="+addr)
	}
	addrFile := filepath.Join(dir, "router.addr")
	if err := f.start("router", nil, filepath.Join(cfg.binDir, "parma-router"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-policy", fleet.PolicyAffinity,
		"-backend", strings.Join(specs, ","), "-probe-every", "50ms", "-log-format", "json"); err != nil {
		return f, err
	}
	addr, err := waitAddr(addrFile)
	if err != nil {
		return f, fmt.Errorf("router: %w\n%s", err, f.logTail("router"))
	}
	f.router = "http://" + addr

	deadline := time.Now().Add(bootTimeout)
	for {
		var h fleet.FleetHealth
		if err := f.getJSON(f.router+"/healthz", &h); err == nil && h.Alive == fleetWorkers {
			return f, nil
		}
		if time.Now().After(deadline) {
			return f, fmt.Errorf("router never saw %d healthy workers\n%s", fleetWorkers, f.logTail("router"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (f *servedFleet) start(name string, env []string, bin string, args ...string) error {
	logFile, err := os.Create(filepath.Join(f.dir, name+".log"))
	if err != nil {
		return fmt.Errorf("%s log: %w", name, err)
	}
	defer logFile.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// If the harness dies without running stop, the kernel takes the child
	// down with it: no orphaned daemon outlives a failed benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", name, err)
	}
	f.procs = append(f.procs, cmd)
	return nil
}

func waitAddr(path string) (string, error) {
	deadline := time.Now().Add(bootTimeout)
	for {
		if data, err := os.ReadFile(path); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			return strings.TrimSpace(string(data)), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("never published its address in %s", path)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (f *servedFleet) logTail(name string) string {
	data, err := os.ReadFile(filepath.Join(f.dir, name+".log"))
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// stop drains every process with SIGTERM (router first, so no request is
// routed to a closing worker), waits for each to exit, kills what does not
// exit in time, and removes the run directory.
func (f *servedFleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		cmd := f.procs[i]
		_ = cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
		done := make(chan struct{})
		go func() {
			_ = cmd.Wait() // exit status of a signalled daemon carries no news
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(drainTimeout):
			_ = cmd.Process.Kill()
			<-done
		}
	}
	f.procs = nil
	f.client.CloseIdleConnections()
	_ = os.RemoveAll(f.dir) // scratch inside the build directory
}

func (f *servedFleet) pids() []int {
	out := make([]int, len(f.procs))
	for i, p := range f.procs {
		out[i] = p.Process.Pid
	}
	return out
}

func (f *servedFleet) workerPids() []int { return f.pids()[:fleetWorkers] }
func (f *servedFleet) routerPid() int    { return f.pids()[fleetWorkers] }

func (f *servedFleet) getJSON(url string, into any) error {
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// cacheCounters sums the workers' lifetime cache hits and misses.
func (f *servedFleet) cacheCounters() (hits, misses int64) {
	for _, w := range f.workers {
		var h serve.HealthResponse
		if err := f.getJSON(w+"/healthz", &h); err == nil {
			hits += h.CacheHits
			misses += h.CacheMisses
		}
	}
	return hits, misses
}

// reply is everything the harness keeps of one served request.
type reply struct {
	status   int
	backend  string // X-Parma-Backend; empty when the router itself answered
	attempts int
	hedged   bool
	err      error
	clientMS float64 // send to last byte
	body     replyBody
}

// replyBody is the union of the recover and measure reply fields read.
type replyBody struct {
	R          [][]float64    `json:"r"`
	Z          [][]float64    `json:"z"`
	Iterations int            `json:"iterations"`
	Residual   float64        `json:"residual"`
	Cache      string         `json:"cache"`
	Method     string         `json:"method"`
	BatchSize  int            `json:"batch_size"`
	Timings    *serve.Timings `json:"timings"`
	Degraded   bool           `json:"degraded"`
}

// post sends one pre-encoded request and reads the whole reply.
func (f *servedFleet) post(base, path string, body []byte) reply {
	var rp reply
	t := time.Now()
	resp, err := f.client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		rp.err = err
		return rp
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.clientMS = float64(time.Since(t)) / float64(time.Millisecond)
	rp.status = resp.StatusCode
	rp.backend = resp.Header.Get("X-Parma-Backend")
	rp.attempts, _ = strconv.Atoi(resp.Header.Get("X-Parma-Attempts")) // absent on direct replies
	rp.hedged = resp.Header.Get("X-Parma-Hedged") != ""
	if err != nil {
		rp.err = err
		return rp
	}
	if rp.status == http.StatusOK {
		rp.err = json.Unmarshal(data, &rp.body)
	}
	return rp
}
