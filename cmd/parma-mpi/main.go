// Command parma-mpi runs distributed equation formation as genuinely
// separate OS processes over TCP — the multi-process deployment mode that
// stands in for the paper's mpi4py/MPICH cluster runs.
//
// Three modes:
//
//	parma-mpi -launch -ranks 4 -n 12      # coordinator + ranks, one command
//	parma-mpi -serve 127.0.0.1:7077 -ranks 4
//	parma-mpi -connect 127.0.0.1:7077 -rank 2 -ranks 4 -n 12
//
// Launch mode starts a coordinator in-process and re-executes this binary
// once per rank; each rank process connects back, forms its share of the
// joint-constraint system, and participates in the closing allreduce. As
// under mpiexec, the first rank process to fail ends the job: the launcher
// kills the others, stops the coordinator and reports that rank.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"parma/internal/experiments"
	"parma/internal/mpi"
	"parma/internal/obs"
)

func main() {
	// -h already printed the usage and is not a failure.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "parma-mpi: %v\n", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("parma-mpi", flag.ContinueOnError)
	launch := fs.Bool("launch", false, "spawn coordinator and all rank processes")
	serve := fs.String("serve", "", "run a coordinator on this address")
	connect := fs.String("connect", "", "connect to a coordinator as a rank")
	rank := fs.Int("rank", -1, "this process's rank (with -connect)")
	ranks := fs.Int("ranks", 4, "world size")
	n := fs.Int("n", 12, "array size (n x n)")
	seed := fs.Int64("seed", 2022, "workload seed")
	traceDir := fs.String("trace-dir", "", "write one Chrome trace per rank (rank<N>.json) into this directory; rank 0 mints the job trace, the others adopt it from frame metadata")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	switch {
	case *launch:
		return runLaunch(*ranks, *n, *seed, *traceDir)
	case *serve != "":
		return runServe(*serve, *ranks)
	case *connect != "":
		return runRank(*connect, *rank, *ranks, *n, *seed, *traceDir)
	}
	fs.Usage()
	return errors.New("one of -launch, -serve or -connect is required")
}

func runServe(addr string, ranks int) error {
	co, err := mpi.NewCoordinator(addr, ranks)
	if err != nil {
		return err
	}
	fmt.Printf("coordinator listening on %s for %d ranks\n", co.Addr(), ranks)
	return co.Serve(context.Background())
}

func runRank(addr string, rank, ranks, n int, seed int64, traceDir string) error {
	if rank < 0 || rank >= ranks {
		return fmt.Errorf("rank %d outside world of %d", rank, ranks)
	}
	p, err := experiments.BuildProblem(n, seed)
	if err != nil {
		return err
	}
	comm, closeFn, err := mpi.DialTCP(addr, rank, ranks, mpi.CostModel{})
	if err != nil {
		return err
	}
	defer closeFn()
	if traceDir != "" {
		// Per-rank distributed tracing: every rank seals its frames with the
		// trace envelope. Rank 0 mints the job's trace id via its root span;
		// the other processes adopt it from the first frame they receive, so
		// the per-rank files merge (parma tracemerge) into one connected tree.
		rec := obs.NewRecorder()
		obs.Enable(rec)
		comm.EnableTracePropagation(obs.TraceContext{})
		var root obs.Span
		if rank == 0 {
			root = comm.StartRootSpan("mpi/job")
		}
		defer func() {
			root.End()
			path := filepath.Join(traceDir, fmt.Sprintf("rank%d.json", rank))
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "parma-mpi: rank %d trace: %v\n", rank, err)
				return
			}
			if err := rec.WriteChromeTrace(f); err != nil {
				fmt.Fprintf(os.Stderr, "parma-mpi: rank %d trace: %v\n", rank, err)
			}
			f.Close()
		}()
	}
	start := time.Now()
	res, err := mpi.DistributedFormation(comm, p)
	if err != nil {
		return err
	}
	fmt.Printf("rank %d/%d: %d local equations of %d total, hash %016x in %v\n",
		rank, ranks, res.LocalEquations, res.TotalEquations, res.LocalHash, time.Since(start).Round(time.Millisecond))
	return nil
}

func runLaunch(ranks, n int, seed int64, traceDir string) error {
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return fmt.Errorf("creating -trace-dir: %w", err)
		}
	}
	co, err := mpi.NewCoordinator("127.0.0.1:0", ranks)
	if err != nil {
		return err
	}
	ctx, stopServe := context.WithCancel(context.Background())
	defer stopServe()
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve(ctx) }()

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate executable: %w", err)
	}
	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, ranks)
	procs := make([]*exec.Cmd, 0, ranks)
	var firstErr error
	// abort ends the job as mpiexec does when a rank fails: kill every rank
	// process, and stop the coordinator, which still waits in Accept if a
	// rank died before it dialed.
	abort := func(err error) {
		if firstErr != nil {
			return
		}
		firstErr = err
		for _, cmd := range procs {
			_ = cmd.Process.Kill()
		}
		stopServe()
	}
	for r := 0; r < ranks && firstErr == nil; r++ {
		args := []string{
			"-connect", co.Addr(),
			"-rank", fmt.Sprint(r),
			"-ranks", fmt.Sprint(ranks),
			"-n", fmt.Sprint(n),
			"-seed", fmt.Sprint(seed),
		}
		if traceDir != "" {
			args = append(args, "-trace-dir", traceDir)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			abort(fmt.Errorf("start rank %d: %w", r, err))
			break
		}
		procs = append(procs, cmd)
		go func() { exits <- exit{r, cmd.Wait()} }()
	}
	for range procs {
		if e := <-exits; e.err != nil {
			abort(fmt.Errorf("rank %d: %w", e.rank, e.err))
		}
	}
	if err := <-serveErr; err != nil && firstErr == nil {
		firstErr = fmt.Errorf("coordinator: %w", err)
	}
	if firstErr == nil {
		fmt.Printf("all %d rank processes completed\n", ranks)
	}
	return firstErr
}
