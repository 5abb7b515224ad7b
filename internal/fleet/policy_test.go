package fleet

import (
	"slices"
	"testing"
)

func testBackends(names ...string) []*Backend {
	out := make([]*Backend, len(names))
	for i, n := range names {
		out[i] = NewBackend(n, "127.0.0.1:0")
		out[i].setProbe(ProbeState{Alive: true})
	}
	return out
}

func namesOf(bs []*Backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

func TestRoundRobinRotates(t *testing.T) {
	bs := testBackends("a", "b", "c")
	p, err := NewPolicy(PolicyRoundRobin, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 9; i++ {
		cands := p.Candidates("8x8", nil, bs)
		if len(cands) != 3 {
			t.Fatalf("want all 3 backends as candidates, got %v", namesOf(cands))
		}
		counts[cands[0].Name]++
	}
	for _, b := range bs {
		if counts[b.Name] != 3 {
			t.Fatalf("uneven rotation: %v", counts)
		}
	}
}

func TestLeastLoadedOrdersByLoad(t *testing.T) {
	bs := testBackends("a", "b", "c")
	bs[0].setProbe(ProbeState{Alive: true, QueueDepth: 7})
	bs[1].setProbe(ProbeState{Alive: true, QueueDepth: 0})
	bs[2].setProbe(ProbeState{Alive: true, QueueDepth: 3})
	p, err := NewPolicy(PolicyLeastLoaded, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := namesOf(p.Candidates("8x8", nil, bs))
	want := []string{"b", "c", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	// Ties break by name for determinism.
	bs[0].setProbe(ProbeState{Alive: true})
	bs[2].setProbe(ProbeState{Alive: true})
	got = namesOf(p.Candidates("8x8", nil, bs))
	want = []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order = %v, want %v", got, want)
		}
	}
}

func TestAffinityFollowsRing(t *testing.T) {
	bs := testBackends("a", "b", "c", "d")
	ring := NewRing(namesOf(bs), 0)
	p, err := NewPolicy(PolicyAffinity, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"8x8", "16x16", "32x64", "12x31"} {
		cands := p.Candidates(key, ring, bs)
		if len(cands) != 4 {
			t.Fatalf("want every routable backend as a candidate, got %v", namesOf(cands))
		}
		wantChain := ring.Successors(key, 4)
		for i := range wantChain {
			if cands[i].Name != wantChain[i] {
				t.Fatalf("key %s: candidates %v, want ring order %v", key, namesOf(cands), wantChain)
			}
		}
	}
}

func TestAffinitySkipsDeadOwner(t *testing.T) {
	bs := testBackends("a", "b", "c", "d")
	ring := NewRing(namesOf(bs), 0)
	p, _ := NewPolicy(PolicyAffinity, 0)
	key := "8x8"
	owner := ring.Owner(key)

	// Mark the owner dead; the routable set passed in shrinks and the
	// key's first candidate must be its first live ring successor.
	routable := make([]*Backend, 0, 3)
	for _, b := range bs {
		if b.Name != owner {
			routable = append(routable, b)
		}
	}
	cands := p.Candidates(key, ring, routable)
	if len(cands) != 3 {
		t.Fatalf("want 3 live candidates, got %v", namesOf(cands))
	}
	var wantFirst string
	for _, s := range ring.Successors(key, 4) {
		if s != owner {
			wantFirst = s
			break
		}
	}
	if cands[0].Name != wantFirst {
		t.Fatalf("dead owner's key routed to %s, want ring successor %s", cands[0].Name, wantFirst)
	}
}

func TestAffinityBoundedLoadSpill(t *testing.T) {
	bs := testBackends("a", "b", "c", "d")
	ring := NewRing(namesOf(bs), 0)
	p, _ := NewPolicy(PolicyAffinity, 1.25)
	key := "8x8"
	owner := ring.Owner(key)

	// Pile load on the owner far past the bound; everyone else idle.
	for _, b := range bs {
		if b.Name == owner {
			b.setProbe(ProbeState{Alive: true, QueueDepth: 100})
		}
	}
	cands := p.Candidates(key, ring, bs)
	if cands[0].Name == owner {
		t.Fatalf("saturated owner %s kept the request; want spill to a successor", owner)
	}
	var wantSpill string
	for _, s := range ring.Successors(key, 4) {
		if s != owner {
			wantSpill = s
			break
		}
	}
	if cands[0].Name != wantSpill {
		t.Fatalf("spilled to %s, want first under-bound successor %s", cands[0].Name, wantSpill)
	}
	// The owner must still be a candidate (failover may need it), and no
	// backend may be lost or duplicated.
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Name] {
			t.Fatalf("duplicate candidate %s in %v", c.Name, namesOf(cands))
		}
		seen[c.Name] = true
	}
	if !seen[owner] || len(cands) != 4 {
		t.Fatalf("spill lost candidates: %v", namesOf(cands))
	}

	// Return home: the moment the owner is back under the bound the key is
	// back on it — nothing remembers the spill.
	for _, b := range bs {
		b.setProbe(ProbeState{Alive: true})
	}
	if cands = p.Candidates(key, ring, bs); cands[0].Name != owner {
		t.Fatalf("owner %s back under the bound, but %s is still first", owner, cands[0].Name)
	}

	// Uniformly saturated fleet: no spill target exists, owner keeps it.
	for _, b := range bs {
		b.setProbe(ProbeState{Alive: true, QueueDepth: 100})
	}
	cands = p.Candidates(key, ring, bs)
	if cands[0].Name != owner {
		t.Fatalf("uniformly-loaded fleet should keep owner %s first, got %s", owner, cands[0].Name)
	}
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := NewPolicy("bogus", 0); err == nil {
		t.Fatal("want error for unknown policy")
	}
}

func TestPoliciesEmptyRoutable(t *testing.T) {
	ring := NewRing([]string{"a"}, 0)
	for _, name := range []string{PolicyRoundRobin, PolicyLeastLoaded, PolicyAffinity} {
		p, err := NewPolicy(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Candidates("8x8", ring, nil); len(got) != 0 {
			t.Fatalf("%s: want no candidates for empty routable set, got %v", name, namesOf(got))
		}
	}
}

// TestAffinityIsPure: for a fixed (ring, routable, loads) the candidate
// order is the same whatever Candidates calls — other keys, other loads,
// spills included — came before it. Placement has no history.
func TestAffinityIsPure(t *testing.T) {
	keys := sampleKeys(40)
	for _, n := range []int{2, 3, 5} {
		bs := testBackends(fleetNames(n)...)
		ring := NewRing(namesOf(bs), 0)
		setLoads := func(seed int) {
			for i, b := range bs {
				b.setProbe(ProbeState{Alive: true, QueueDepth: int64((seed*7 + i*13) % 11)})
			}
		}
		// The reference answers come from a policy that has seen nothing else.
		const fixed = 3
		setLoads(fixed)
		want := map[string][]string{}
		for _, k := range keys {
			fresh, _ := NewPolicy(PolicyAffinity, 1.25)
			want[k] = namesOf(fresh.Candidates(k, ring, bs))
		}

		p, _ := NewPolicy(PolicyAffinity, 1.25)
		for round, k := range keys {
			// Churn: every other key under a different load picture, on the
			// full set and with one backend out.
			setLoads(round)
			for _, other := range keys {
				if other != k {
					p.Candidates(other, ring, bs)
					p.Candidates(other, ring, bs[1:])
				}
			}
			setLoads(fixed)
			if got := namesOf(p.Candidates(k, ring, bs)); !slices.Equal(got, want[k]) {
				t.Fatalf("n=%d key %s: candidates %v after churn, %v fresh", n, k, got, want[k])
			}
		}
	}
}
