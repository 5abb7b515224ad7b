// Package poolsize exercises the poolsize analyzer: goroutine fan-out
// loops in the compute packages must go through the one worker loop
// (sched.Run, or mat.ParallelFor above it) so parallelism stays bounded and
// composes with the server's request-level workers.
package poolsize

// fanOut is the core finding: one goroutine per item, width bounded only
// by the data.
func fanOut(items []int, out chan<- int) {
	for _, v := range items {
		go send(out, v) // want "go statement inside a loop"
	}
}

// counted three-clause loops are flagged the same way.
func counted(n int, out chan<- int) {
	for i := 0; i < n; i++ {
		go send(out, i) // want "go statement inside a loop"
	}
}

// viaLiteral still spawns once per iteration when the literal is called in
// the loop; the check is lexical, so it is flagged too.
func viaLiteral(n int, out chan<- int) {
	for i := 0; i < n; i++ {
		spawn := func(v int) {
			go send(out, v) // want "go statement inside a loop"
		}
		spawn(i)
	}
}

// single spawns are not fan-out; only loops are in scope.
func single(out chan<- int) {
	go send(out, 1)
}

// afterLoop: the loop and the spawn are siblings, nothing to flag.
func afterLoop(n int, out chan<- int) {
	sum := 0
	for i := 0; i < n; i++ {
		sum += i
	}
	go send(out, sum)
}

// sanctioned is the sched.Run shape: a justified, annotated spawn site.
func sanctioned(workers int, out chan<- int) {
	for w := 0; w < workers; w++ {
		go send(out, w) //parmavet:allow poolsize -- fixture stand-in for sched.Run's own spawn site
	}
}

func send(out chan<- int, v int) { out <- v }
