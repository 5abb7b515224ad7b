package parallel

import (
	"math/rand"
	"testing"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/kirchhoff"
	"parma/internal/sched"
)

func testProblem(tb testing.TB, m, n int, seed int64) *kirchhoff.Problem {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := grid.NewField(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			r.Set(i, j, 2000+9000*rng.Float64())
		}
	}
	a := grid.New(m, n)
	z, err := circuit.MeasureAll(a, r)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := kirchhoff.NewProblem(a, z, 5.0)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestStrategiesProduceIdenticalSystems is the key scheduling-correctness
// test: every strategy, at several worker counts and chunk policies, must
// emit exactly the serial canonical system.
func TestStrategiesProduceIdenticalSystems(t *testing.T) {
	p := testProblem(t, 5, 4, 1)
	ref := Serial{}.Run(p, Options{Collect: true})
	census := kirchhoff.SystemCensus(p.Array)
	if ref.Count != census.Equations {
		t.Fatalf("serial formed %d equations, want %d", ref.Count, census.Equations)
	}
	for _, s := range All() {
		for _, w := range []int{1, 2, 3, 8} {
			for _, policy := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
				got := s.Run(p, Options{Workers: w, Policy: policy, Chunk: 3, Collect: true})
				if got.Count != ref.Count {
					t.Fatalf("%s w=%d %v: count %d, want %d", s.Name(), w, policy, got.Count, ref.Count)
				}
				if got.Hash != ref.Hash {
					t.Fatalf("%s w=%d %v: hash mismatch", s.Name(), w, policy)
				}
				for i := range ref.Equations {
					if ref.Equations[i].String() != got.Equations[i].String() {
						t.Fatalf("%s w=%d %v: canonical slot %d differs:\n%s\n%s",
							s.Name(), w, policy, i, ref.Equations[i], got.Equations[i])
					}
				}
			}
		}
	}
}

// TestStreamingModeMatchesCollected: Collect=false must form the same
// system (same hash, same count) without retaining it.
func TestStreamingModeMatchesCollected(t *testing.T) {
	p := testProblem(t, 4, 4, 2)
	ref := Serial{}.Run(p, Options{Collect: true})
	for _, s := range All() {
		got := s.Run(p, Options{Workers: 4, Collect: false})
		if got.Equations != nil {
			t.Fatalf("%s: streaming mode retained equations", s.Name())
		}
		if got.Hash != ref.Hash || got.Count != ref.Count {
			t.Fatalf("%s: streaming hash/count mismatch", s.Name())
		}
	}
}

func TestFineGrainedSingleWorkerMatchesSerialOrderToo(t *testing.T) {
	p := testProblem(t, 3, 3, 3)
	ref := Serial{}.Run(p, Options{Collect: true})
	got := FineGrained{}.Run(p, Options{Workers: 1, Collect: true})
	for i := range ref.Equations {
		if ref.Equations[i].String() != got.Equations[i].String() {
			t.Fatalf("slot %d differs", i)
		}
	}
}

func TestTaskCostSkewMatchesPaper(t *testing.T) {
	// §IV-C1: intermediate categories are roughly n times heavier.
	p := testProblem(t, 10, 10, 4)
	srcCost := TaskCost(p, 0) // CatSource of pair 0
	uaCost := TaskCost(p, 2)  // CatUa of pair 0
	if uaCost < 8*srcCost {
		t.Fatalf("Ua cost %g not ≫ source cost %g", uaCost, srcCost)
	}
}

func TestEquationAtMatchesCanonicalIndex(t *testing.T) {
	p := testProblem(t, 4, 3, 5)
	census := kirchhoff.SystemCensus(p.Array)
	for idx := 0; idx < census.Equations; idx++ {
		e := p.EquationAt(idx, nil)
		if back := p.EquationIndex(e); back != idx {
			t.Fatalf("EquationIndex(EquationAt(%d)) = %d", idx, back)
		}
	}
}

func TestWriteShardedRoundTrip(t *testing.T) {
	p := testProblem(t, 3, 4, 6)
	dir := t.TempDir()
	bytes, err := WriteSharded(p, dir, 3, sched.Dynamic, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Fatal("no bytes written")
	}
	got, err := ReadShards(p, dir)
	if err != nil {
		t.Fatal(err)
	}
	ref := Serial{}.Run(p, Options{Collect: true})
	if len(got) != len(ref.Equations) {
		t.Fatalf("shards hold %d equations, want %d", len(got), len(ref.Equations))
	}
	for i := range got {
		if got[i].String() != ref.Equations[i].String() {
			t.Fatalf("canonical slot %d differs after shard round trip", i)
		}
	}
}

func TestReadShardsDetectsMissing(t *testing.T) {
	p := testProblem(t, 2, 2, 7)
	dir := t.TempDir()
	if _, err := WriteSharded(p, dir, 2, sched.Static, 1); err != nil {
		t.Fatal(err)
	}
	// Remove one shard: ReadShards must notice the gap.
	if err := removeOneShard(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShards(p, dir); err == nil {
		t.Fatal("missing shard went undetected")
	}
}

func TestDefaultWorkersIsPositive(t *testing.T) {
	p := testProblem(t, 2, 2, 8)
	got := Balanced{}.Run(p, Options{Workers: 0, Collect: true})
	if got.Count != kirchhoff.SystemCensus(p.Array).Equations {
		t.Fatal("default worker count failed to form the system")
	}
}

func TestStrategyNames(t *testing.T) {
	want := map[string]bool{
		"single-thread": true, "parallel": true, "balanced-parallel": true,
		"work-stealing": true, "pymp": true,
	}
	for _, s := range All() {
		if !want[s.Name()] {
			t.Fatalf("unexpected strategy name %q", s.Name())
		}
		delete(want, s.Name())
	}
	if len(want) != 0 {
		t.Fatalf("missing strategies: %v", want)
	}
}
