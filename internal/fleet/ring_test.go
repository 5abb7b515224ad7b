package fleet

import (
	"fmt"
	"slices"
	"sort"
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

// TestRehomedKeysMatchOwnerDelta is the churn property test behind warm
// handoff: for any single-member transition, RehomedKeys must name
// exactly the keys whose consistent-hash owner changed, grouped under
// exactly their new owner — no key missing, none invented, none
// misrouted. The handoff protocol pushes warm state along this map, so
// an off-by-one here is a cold cache after every membership change. A
// health ejection leaves the ring alone, so its work list comes from
// rehomeToRoutable instead: checked here, on the ring each transition
// produced, against a brute-force walk of the successor chain.
func TestRehomedKeysMatchOwnerDelta(t *testing.T) {
	keys := append(sampleKeys(400), sampleKeys(50)...) // duplicates on purpose
	transitions := []struct {
		name   string
		mutate func(*Ring) *Ring
		eject  string   // member ejected after the transition ("" = none)
		down   []string // other members unroutable at that moment
	}{
		{name: "add w9", mutate: func(r *Ring) *Ring { return r.With("w9") }, eject: "w9"},
		{name: "remove w2", mutate: func(r *Ring) *Ring { return r.Without("w2") }, eject: "w0"},
		{name: "remove w0", mutate: func(r *Ring) *Ring { return r.Without("w0") }, eject: "w1", down: []string{"w3"}},
		{name: "add then settled", mutate: func(r *Ring) *Ring { return r.With("w7").Without("w3") }, eject: "w7", down: []string{"w0", "w4"}},
		{name: "eject only", mutate: func(r *Ring) *Ring { return r }, eject: "w1"},
	}
	// sameGroups compares a grouping against the brute-force expectation.
	sameGroups := func(label string, got map[string][]string, want map[string]map[string]bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d successors named, brute force says %d", label, len(got), len(want))
		}
		for succ, ks := range got {
			if len(ks) != len(want[succ]) {
				t.Errorf("%s: successor %s got %d keys, want %d", label, succ, len(ks), len(want[succ]))
			}
			for _, k := range ks {
				if !want[succ][k] {
					t.Errorf("%s: key %s re-homed to %s, but brute force disagrees", label, k, succ)
				}
			}
		}
	}
	add := func(want map[string]map[string]bool, succ, k string) {
		if want[succ] == nil {
			want[succ] = map[string]bool{}
		}
		want[succ][k] = true
	}
	for _, n := range []int{2, 3, 5, 8} {
		oldRing := NewRing(fleetNames(n), DefaultVnodes)
		for _, tr := range transitions {
			newRing := tr.mutate(oldRing)
			label := fmt.Sprintf("n=%d %s", n, tr.name)

			// Brute force the expected delta, deduplicating like RehomedKeys.
			want := map[string]map[string]bool{}
			var uniq []string
			seen := map[string]bool{}
			for _, k := range keys {
				if seen[k] {
					continue
				}
				seen[k] = true
				uniq = append(uniq, k)
				oldOwner, newOwner := oldRing.Owner(k), newRing.Owner(k)
				if newOwner == "" || newOwner == oldOwner {
					continue
				}
				add(want, newOwner, k)
			}
			sameGroups(label, RehomedKeys(oldRing, newRing, keys), want)

			// Ejection on the resulting ring: a key is on the work list iff
			// the first member of its chain that is live or the ejected one
			// is the ejected one, and it goes to the next live member.
			var dead *Backend
			var live []*Backend
			liveName := map[string]bool{}
			for _, b := range testBackends(newRing.Backends()...) {
				switch {
				case b.Name == tr.eject:
					dead = b
				case !slices.Contains(tr.down, b.Name):
					live = append(live, b)
					liveName[b.Name] = true
				}
			}
			if dead == nil {
				continue // the transition's victim is not a member at this n
			}
			want = map[string]map[string]bool{}
			for _, k := range uniq {
				chain := newRing.Successors(k, newRing.Len())
				first := slices.IndexFunc(chain, func(m string) bool { return m == dead.Name || liveName[m] })
				if chain[first] != dead.Name {
					continue
				}
				if next := slices.IndexFunc(chain[first+1:], func(m string) bool { return liveName[m] }); next >= 0 {
					add(want, chain[first+1+next], k)
				}
			}
			sort.Strings(uniq)
			sameGroups(label+" eject "+tr.eject, rehomeToRoutable(newRing, dead, live, uniq), want)
		}
	}
}
