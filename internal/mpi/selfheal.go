package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"parma/internal/kirchhoff"
	"parma/internal/obs"
	"parma/internal/sched"
)

// Self-healing distributed formation. The pair space is cut into
// size×blocksPerRank contiguous blocks, dealt round-robin to ranks. Each
// worker forms its blocks in order and checkpoints every completed block —
// its (equation count, XOR-of-checksums digest) — to rank 0, the
// coordinator. When the failure detector declares a worker dead, the
// coordinator redistributes the dead rank's unfinished blocks to surviving
// workers (or forms them itself), so the run completes with every block
// accounted for exactly once.
//
// Bit-identity under faults falls out of the construction: each block's
// result is a deterministic function of the problem alone, and the system
// digest XORs per-equation checksums, which is order- and owner-
// independent. Whoever recomputes a block gets the same answer, so the
// final (TotalEquations, SystemHash) matches the fault-free run exactly.
//
// Rank 0 is the coordinator and must not be the chaos crash target.

// Tags for the self-healing protocol (above the collective tag space).
const (
	tagShUp     = 1<<28 + 16 // worker → root: checkpoint or work request
	tagShAssign = 1<<28 + 17 // root → worker: block assignment or DONE
)

// Up-message kinds.
const (
	shCkpt    byte = 1 // checkpoint: block result attached
	shRequest byte = 2 // work request: worker is idle
)

// blocksPerRank is the checkpoint granularity: how many blocks each rank
// initially owns. More blocks mean finer-grained redistribution and less
// recomputation after a death.
const blocksPerRank = 4

// ResilientResult is the outcome of a self-healing formation, valid on
// every surviving rank.
type ResilientResult struct {
	TotalEquations int
	// SystemHash is the order-independent digest of the full equation
	// system: XOR over every equation's checksum. Bit-identical to the
	// fault-free run regardless of which ranks formed which blocks.
	SystemHash uint64
	// Dead lists the ranks the coordinator declared dead (root only).
	Dead []int
	// Redistributed counts blocks reassigned after a death (root only).
	Redistributed int
}

type blockResult struct {
	count int
	hash  uint64
}

// formBlock forms one block of the pair space and returns its result.
func formBlock(c *Comm, p *kirchhoff.Problem, r sched.Range) blockResult {
	cols := p.Array.Cols()
	start := time.Now()
	var res blockResult
	for pair := r.Lo; pair < r.Hi; pair++ {
		p.FormPair(pair/cols, pair%cols, func(e kirchhoff.Equation) {
			res.hash ^= kirchhoff.Checksum(e)
			res.count++
		})
	}
	c.ChargeCompute(time.Since(start))
	return res
}

// ResilientFormation runs the self-healing formation. Under a chaotic
// world it needs the reliable layer (WithReliable) so deaths surface as
// typed errors instead of hangs; on a clean transport it degrades to a
// plain coordinated formation. A crashed rank returns its *CrashError;
// every surviving rank returns the same ResilientResult.
func ResilientFormation(c *Comm, p *kirchhoff.Problem) (ResilientResult, error) {
	pairs := p.Array.Pairs()
	nBlocks := c.Size() * blocksPerRank
	if nBlocks > pairs {
		nBlocks = pairs
	}
	if nBlocks < 1 {
		nBlocks = 1
	}
	blocks := sched.StaticRanges(pairs, nBlocks)

	sp := c.span("mpi/resilient_formation")
	defer sp.End(obs.I("rank", c.Rank()), obs.I("blocks", nBlocks))

	if c.Rank() == 0 {
		return resilientRoot(c, p, blocks)
	}
	return resilientWorker(c, p, blocks)
}

// ownedBlocks returns the block ids rank initially owns (round-robin).
func ownedBlocks(rank, size, nBlocks int) []int {
	var out []int
	for b := rank; b < nBlocks; b += size {
		out = append(out, b)
	}
	return out
}

func encodeUp(kind byte, block int, res blockResult) []byte {
	out := make([]byte, 21)
	out[0] = kind
	binary.LittleEndian.PutUint32(out[1:], uint32(int32(block)))
	binary.LittleEndian.PutUint64(out[5:], uint64(res.count))
	binary.LittleEndian.PutUint64(out[13:], res.hash)
	return out
}

func decodeUp(data []byte) (kind byte, block int, res blockResult, err error) {
	if len(data) != 21 {
		return 0, 0, res, fmt.Errorf("mpi: malformed self-heal up-message of %d bytes", len(data))
	}
	kind = data[0]
	block = int(int32(binary.LittleEndian.Uint32(data[1:])))
	res.count = int(binary.LittleEndian.Uint64(data[5:]))
	res.hash = binary.LittleEndian.Uint64(data[13:])
	return kind, block, res, nil
}

func encodeAssign(block int, total int, hash uint64) []byte {
	out := make([]byte, 20)
	binary.LittleEndian.PutUint32(out[0:], uint32(int32(block)))
	binary.LittleEndian.PutUint64(out[4:], uint64(total))
	binary.LittleEndian.PutUint64(out[12:], hash)
	return out
}

func decodeAssign(data []byte) (block int, total int, hash uint64, err error) {
	if len(data) != 20 {
		return 0, 0, 0, fmt.Errorf("mpi: malformed self-heal assignment of %d bytes", len(data))
	}
	block = int(int32(binary.LittleEndian.Uint32(data[0:])))
	total = int(binary.LittleEndian.Uint64(data[4:]))
	hash = binary.LittleEndian.Uint64(data[12:])
	return block, total, hash, nil
}

// resilientWorker forms its owned blocks, checkpointing each to the root,
// then serves reassignments until the root says DONE.
func resilientWorker(c *Comm, p *kirchhoff.Problem, blocks []sched.Range) (ResilientResult, error) {
	var res ResilientResult
	for _, b := range ownedBlocks(c.Rank(), c.Size(), len(blocks)) {
		br := formBlock(c, p, blocks[b])
		// Checkpoints are fire-and-forget: a lost one only means the root
		// reassigns the block and someone recomputes the same answer.
		if err := c.SendNoAck(0, tagShUp, encodeUp(shCkpt, b, br)); err != nil {
			return res, err
		}
	}
	for {
		if err := c.Send(0, tagShUp, encodeUp(shRequest, -1, blockResult{})); err != nil {
			return res, err
		}
		data, _, err := c.Recv(0, tagShAssign)
		if err != nil {
			return res, err
		}
		block, total, hash, err := decodeAssign(data)
		if err != nil {
			return res, err
		}
		if block < 0 {
			res.TotalEquations = total
			res.SystemHash = hash
			return res, nil
		}
		br := formBlock(c, p, blocks[block])
		if err := c.SendNoAck(0, tagShUp, encodeUp(shCkpt, block, br)); err != nil {
			return res, err
		}
	}
}

// workerState tracks the coordinator's view of one worker.
type workerState int

const (
	wsWorking workerState = iota // forming blocks, will report
	wsWaiting                    // asked for work, owed a reply
	wsDone                       // released with DONE
	wsDead                       // declared dead by the detector
)

// resilientRoot coordinates: it forms its own blocks, collects
// checkpoints, reassigns the blocks of dead or slow ranks, and releases
// every surviving worker with the final totals.
func resilientRoot(c *Comm, p *kirchhoff.Problem, blocks []sched.Range) (ResilientResult, error) {
	var res ResilientResult
	size := c.Size()
	nBlocks := len(blocks)
	results := make(map[int]blockResult, nBlocks)
	state := make([]workerState, size)
	state[0] = wsDone
	remaining := make([][]int, size) // per-worker blocks not yet checkpointed
	for r := 1; r < size; r++ {
		remaining[r] = ownedBlocks(r, size, nBlocks)
	}
	var pending []int // blocks needing a new owner

	for _, b := range ownedBlocks(0, size, nBlocks) {
		results[b] = formBlock(c, p, blocks[b])
	}

	suspectAfter := c.SuspectAfter()
	slice := 20 * time.Millisecond
	if suspectAfter > 0 && suspectAfter/4 < slice {
		slice = suspectAfter / 4
	}

	markDead := func(r int, why string) {
		if state[r] == wsDead || state[r] == wsDone {
			return
		}
		state[r] = wsDead
		res.Dead = append(res.Dead, r)
		obs.Add("mpi/formation_rank_deaths", 1)
		// The dead rank's unfinished blocks go back on the queue; results
		// it already checkpointed stay counted.
		for _, b := range remaining[r] {
			if _, done := results[b]; !done {
				pending = append(pending, b)
				res.Redistributed++
			}
		}
		remaining[r] = nil
	}

	assign := func(r, block int) {
		remaining[r] = append(remaining[r], block)
		state[r] = wsWorking
		if err := c.Send(r, tagShAssign, encodeAssign(block, 0, 0)); err != nil {
			markDead(r, "assignment send failed")
		}
	}

	finished := func() bool {
		if len(results) < nBlocks {
			return false
		}
		for r := 1; r < size; r++ {
			if state[r] == wsWorking || state[r] == wsWaiting {
				return false
			}
		}
		return true
	}

	releaseAll := func(total int, hash uint64) {
		for r := 1; r < size; r++ {
			if state[r] == wsWaiting {
				if err := c.Send(r, tagShAssign, encodeAssign(-1, total, hash)); err != nil {
					markDead(r, "release send failed")
				} else {
					state[r] = wsDone
				}
			}
		}
	}

	totals := func() (int, uint64) {
		total, hash := 0, uint64(0)
		for _, br := range results {
			total += br.count
			hash ^= br.hash
		}
		return total, hash
	}

	for !finished() {
		// Hand queued blocks to idle workers first.
		for len(pending) > 0 {
			idle := -1
			for r := 1; r < size; r++ {
				if state[r] == wsWaiting {
					idle = r
					break
				}
			}
			if idle < 0 {
				break
			}
			assign(idle, pending[0])
			pending = pending[1:]
		}
		if len(results) == nBlocks {
			// Release everyone already waiting; workers still reporting in
			// get their DONE as their requests arrive below.
			t, h := totals()
			releaseAll(t, h)
			if finished() {
				break
			}
		}

		data, src, err := c.RecvTimeout(AnySource, tagShUp, slice)
		if err != nil {
			var dead *RankDeadError
			switch {
			case errors.As(err, &dead):
				markDead(dead.Rank, "detector")
				continue
			case errors.Is(err, ErrOpTimeout):
				// Silence: sweep the detector over outstanding workers,
				// then make progress ourselves if everyone is busy or gone.
				if suspectAfter > 0 {
					for r := 1; r < size; r++ {
						if state[r] == wsWorking {
							if idle, ok := c.PeerIdle(r); ok && idle > suspectAfter {
								markDead(r, "silent past suspect threshold")
							}
						}
					}
				}
				if len(pending) > 0 {
					b := pending[0]
					pending = pending[1:]
					results[b] = formBlock(c, p, blocks[b])
				}
				continue
			default:
				return res, err
			}
		}
		kind, block, br, err := decodeUp(data)
		if err != nil {
			return res, err
		}
		switch kind {
		case shCkpt:
			if _, dup := results[block]; !dup {
				results[block] = br
			}
			rem := remaining[src][:0]
			for _, b := range remaining[src] {
				if b != block {
					rem = append(rem, b)
				}
			}
			remaining[src] = rem
		case shRequest:
			// A request from a declared-dead rank means the detector fired
			// on a slow-but-alive worker; it rejoins the pool here.
			state[src] = wsWaiting
			// A request asserts the worker finished everything handed to
			// it, so any of its blocks still missing a result had their
			// checkpoint lost in flight: requeue them for recomputation.
			for _, b := range remaining[src] {
				if _, done := results[b]; !done {
					pending = append(pending, b)
					obs.Add("mpi/formation_ckpt_lost", 1)
				}
			}
			remaining[src] = nil
			if len(results) == nBlocks {
				t, h := totals()
				if err := c.Send(src, tagShAssign, encodeAssign(-1, t, h)); err != nil {
					markDead(src, "release send failed")
				} else {
					state[src] = wsDone
				}
			}
		default:
			return res, fmt.Errorf("mpi: unknown self-heal message kind %d from rank %d", kind, src)
		}
	}

	res.TotalEquations, res.SystemHash = totals()
	return res, nil
}
