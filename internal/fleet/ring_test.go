package fleet

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// sampleKeys returns K synthetic geometry keys shaped like the real ones
// ("RxC"), spread over a wide range of geometries.
func sampleKeys(k int) []string {
	keys := make([]string, k)
	for i := 0; i < k; i++ {
		keys[i] = fmt.Sprintf("%dx%d", 8+i%97, 8+(i*31)%89)
	}
	return keys
}

func fleetNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	return names
}

// TestRingMinimalDisruption is the consistent-hashing contract: removing
// (or adding) one of n backends re-homes only about K/n of K sampled
// keys. A modulo-hash router would move (n-1)/n of them.
func TestRingMinimalDisruption(t *testing.T) {
	const K, n = 1000, 5
	keys := sampleKeys(K)
	ring := NewRing(fleetNames(n), 0)

	before := make(map[string]string, K)
	for _, k := range keys {
		before[k] = ring.Owner(k)
	}

	// The expected move fraction is 1/n; allow 2x slack for hash-spread
	// unevenness at 64 vnodes.
	maxMoved := 2 * K / n

	t.Run("remove", func(t *testing.T) {
		for _, victim := range ring.Backends() {
			smaller := ring.Without(victim)
			moved := 0
			for _, k := range keys {
				if smaller.Owner(k) != before[k] {
					moved++
					// Only the victim's keys may move, and each must re-home to
					// the key's first live ring successor — the same backend a
					// failover retry would pick.
					if before[k] != victim {
						t.Fatalf("key %s moved off surviving backend %s", k, before[k])
					}
					succ := ring.Successors(k, n)
					want := ""
					for _, s := range succ {
						if s != victim {
							want = s
							break
						}
					}
					if got := smaller.Owner(k); got != want {
						t.Fatalf("key %s re-homed to %s, want ring successor %s", k, got, want)
					}
				}
			}
			if moved > maxMoved {
				t.Errorf("removing %s moved %d/%d keys, want <= %d (~K/n)", victim, moved, K, maxMoved)
			}
			if moved == 0 {
				t.Errorf("removing %s moved no keys; ring is not partitioning", victim)
			}
		}
	})

	t.Run("add", func(t *testing.T) {
		bigger := ring.With("w-new")
		moved := 0
		for _, k := range keys {
			if got := bigger.Owner(k); got != before[k] {
				moved++
				if got != "w-new" {
					t.Fatalf("key %s moved to %s, not the new backend", k, got)
				}
			}
		}
		// New member should own roughly K/(n+1); same 2x slack.
		if max := 2 * K / (n + 1); moved > max {
			t.Errorf("adding a backend moved %d/%d keys, want <= %d", moved, K, max)
		}
		if moved == 0 {
			t.Error("adding a backend moved no keys")
		}
	})
}

// TestRingDeterministic asserts ownership is a pure function of the name
// set and vnode count: independent constructions — including from
// differently-ordered and duplicated name lists, standing in for separate
// process restarts — route every key identically.
func TestRingDeterministic(t *testing.T) {
	keys := sampleKeys(500)
	a := NewRing([]string{"w0", "w1", "w2", "w3", "w4"}, 0)
	b := NewRing([]string{"w4", "w2", "w0", "w3", "w1", "w2"}, 0) // shuffled + dup
	c := NewRing([]string{"w9", "w0", "w1", "w2", "w3", "w4"}, 0).Without("w9")
	for _, k := range keys {
		ao := a.Owner(k)
		if bo := b.Owner(k); bo != ao {
			t.Fatalf("order-sensitive ownership for %s: %s vs %s", k, ao, bo)
		}
		if co := c.Owner(k); co != ao {
			t.Fatalf("With/Without-path ownership differs for %s: %s vs %s", k, ao, co)
		}
		as, bs := a.Successors(k, 5), b.Successors(k, 5)
		if len(as) != len(bs) {
			t.Fatalf("successor count differs for %s", k)
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("successor order differs for %s at %d: %v vs %v", k, i, as, bs)
			}
		}
	}
}

func TestRingSuccessorsDistinct(t *testing.T) {
	ring := NewRing(fleetNames(4), 16)
	for _, k := range sampleKeys(100) {
		succ := ring.Successors(k, 4)
		if len(succ) != 4 {
			t.Fatalf("want 4 distinct successors, got %v", succ)
		}
		if succ[0] != ring.Owner(k) {
			t.Fatalf("successor chain must start at the owner: %v vs %s", succ, ring.Owner(k))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("duplicate backend in successor chain: %v", succ)
			}
			seen[s] = true
		}
	}
}

func TestRingOwnedShare(t *testing.T) {
	const n = 5
	ring := NewRing(fleetNames(n), 0)
	shares := ring.OwnedShare()
	if len(shares) != n {
		t.Fatalf("want %d shares, got %d", n, len(shares))
	}
	sum := 0.0
	for i, s := range shares {
		sum += s
		// 64 vnodes keeps each backend within a loose band of 1/n.
		if s < 0.5/n || s > 2.0/n {
			t.Errorf("backend %s owns share %.4f, outside [%.4f, %.4f]",
				ring.Backends()[i], s, 0.5/n, 2.0/n)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %.6f, want 1", sum)
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Owner("8x8"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	if got := empty.Successors("8x8", 3); got != nil {
		t.Fatalf("empty ring successors = %v, want nil", got)
	}
	one := NewRing([]string{"solo"}, 0)
	for _, k := range sampleKeys(20) {
		if got := one.Owner(k); got != "solo" {
			t.Fatalf("single-member ring owner = %q", got)
		}
	}
}

// TestMovesMatchRoutingDelta is the property test behind warm handoff:
// over random joins, removals, ejections and readmissions, from states
// with ejected ring owners, moves must name exactly the keys whose first
// routable ring successor changed, each under its (before, after) pair of
// servers: no key missing, none invented, none misrouted. The brute force
// walks each key's successor chain by name.
func TestMovesMatchRoutingDelta(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 48))
	keys := sampleKeys(400)
	pool := testBackends(fleetNames(8)...)
	members := []string{"w0", "w1", "w2", "w3"}
	up := map[string]bool{"w1": true, "w2": true, "w3": true} // w0 starts ejected
	ring := NewRing(members, DefaultVnodes)

	viewOf := func(ring *Ring, up map[string]bool) view {
		v := view{ring: ring}
		for _, b := range pool {
			if up[b.Name] {
				v.routable = append(v.routable, b)
			}
		}
		return v
	}
	firstUp := func(ring *Ring, up map[string]bool, k string) string {
		for _, name := range ring.Successors(k, ring.Len()) {
			if up[name] {
				return name
			}
		}
		return ""
	}
	pick := func(names []string, ok func(string) bool) string {
		names = slices.DeleteFunc(slices.Clone(names), func(n string) bool { return !ok(n) })
		if len(names) == 0 {
			return ""
		}
		return names[rng.IntN(len(names))]
	}
	kinds := []string{"add", "remove", "eject", "readmit"}
	counts := map[string]int{}
	for step := 0; step < 300; step++ {
		nextRing, nextUp := ring, maps.Clone(up)
		var name string
		kind := rng.IntN(len(kinds))
		switch kinds[kind] {
		case "add": // the joiner counts as routable after the join
			name = pick(fleetNames(len(pool)), func(n string) bool { return !slices.Contains(members, n) })
			if name == "" {
				continue
			}
			nextRing, nextUp[name], members = ring.With(name), true, append(members, name)
		case "remove":
			if len(members) == 1 {
				continue
			}
			name = members[rng.IntN(len(members))]
			members = slices.DeleteFunc(members, func(m string) bool { return m == name })
			nextRing = ring.Without(name)
			delete(nextUp, name)
		case "eject":
			if name = pick(members, func(n string) bool { return up[n] }); name == "" {
				continue
			}
			delete(nextUp, name)
		case "readmit":
			if name = pick(members, func(n string) bool { return !up[n] }); name == "" {
				continue
			}
			nextUp[name] = true
		}
		counts[kinds[kind]]++
		what := kinds[kind] + " " + name

		want := map[[2]string][]string{}
		for _, k := range keys {
			from, to := firstUp(ring, up, k), firstUp(nextRing, nextUp, k)
			if from != "" && to != "" && from != to {
				want[[2]string{from, to}] = append(want[[2]string{from, to}], k)
			}
		}
		got := map[[2]string][]string{}
		for _, m := range moves(viewOf(ring, up), viewOf(nextRing, nextUp), keys) {
			id := [2]string{m.from.Name, m.to.Name}
			if _, dup := got[id]; dup {
				t.Fatalf("step %d (%s): two groups for %s -> %s", step, what, id[0], id[1])
			}
			got[id] = m.keys
		}
		if !maps.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Fatalf("step %d (%s): moves = %v, brute force says %v", step, what, got, want)
		}
		ring, up = nextRing, nextUp
	}
	for _, kind := range kinds {
		if counts[kind] < 20 {
			t.Errorf("only %d %s transitions in the walk: %v", counts[kind], kind, counts)
		}
	}
}
