package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parma/internal/grid"
	"parma/internal/serve"
)

// adminWorker stubs a parmad worker with the warm-handoff surface: it
// exports canned warm state from /v1/warmstate, leaving out the keys it
// holds none for, and records every /v1/prewarm push it receives. Like the
// real worker it answers 400 to a geometry above stubMaxDim on every
// endpoint — failing a whole warmstate or prewarm batch over one such key
// — to a warmstate request larger than one serve.WarmChunks chunk, and to
// a prewarm entry without r. While sick is set its /healthz fails, so the
// prober ejects it, but its other endpoints keep answering.
type adminWorker struct {
	name string
	srv  *httptest.Server
	sick atomic.Bool

	mu        sync.Mutex
	warm      map[string][][]float64 // geometry key -> exported warm R
	prewarmed []serve.PrewarmEntry
}

const stubMaxDim = 64

// stubKeyOK reports whether the stub worker accepts geometry key.
func stubKeyOK(key string) bool {
	var rows, cols int
	_, err := fmt.Sscanf(key, "%dx%d", &rows, &cols)
	return err == nil && rows <= stubMaxDim && cols <= stubMaxDim
}

func newAdminWorker(t *testing.T, name string) *adminWorker {
	t.Helper()
	w := &adminWorker{name: name, warm: map[string][][]float64{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if w.sick.Load() {
			http.Error(rw, "sick", http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprint(rw, `{"status":"ok","workers":1}`)
	})
	mux.HandleFunc("POST /v1/recover", func(rw http.ResponseWriter, r *http.Request) {
		var g geomProbe
		if err := json.NewDecoder(r.Body).Decode(&g); err != nil || !stubKeyOK(fmt.Sprintf("%dx%d", g.Rows, g.Cols)) {
			rw.WriteHeader(http.StatusBadRequest)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"worker":%q}`, w.name)
	})
	mux.HandleFunc("GET /v1/warmstate", func(rw http.ResponseWriter, r *http.Request) {
		keys := strings.Split(r.URL.Query().Get("keys"), ",")
		if len(serve.WarmChunks(keys)) > 1 || slices.ContainsFunc(keys, func(k string) bool { return !stubKeyOK(k) }) {
			rw.WriteHeader(http.StatusBadRequest)
			return
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		var resp serve.WarmStateResponse
		for _, k := range keys {
			if r := w.warm[k]; r != nil {
				resp.Entries = append(resp.Entries, serve.PrewarmEntry{Key: k, R: r})
			}
		}
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(resp)
	})
	mux.HandleFunc("POST /v1/prewarm", func(rw http.ResponseWriter, r *http.Request) {
		var req serve.PrewarmRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil ||
			slices.ContainsFunc(req.Entries, func(e serve.PrewarmEntry) bool { return !stubKeyOK(e.Key) || e.R == nil }) {
			rw.WriteHeader(http.StatusBadRequest)
			return
		}
		w.mu.Lock()
		w.prewarmed = append(w.prewarmed, req.Entries...)
		w.mu.Unlock()
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintf(rw, `{"accepted":%d}`, len(req.Entries))
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func (w *adminWorker) prewarmedKeys() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, len(w.prewarmed))
	for i, e := range w.prewarmed {
		out[i] = e.Key
	}
	return out
}

// warmGrid returns a uniform positive RxC field for warm-state export.
func warmGrid(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		row := make([]float64, cols)
		for j := range row {
			row[j] = 1000
		}
		out[i] = row
	}
	return out
}

func adminRouter(t *testing.T, token string, workers ...*adminWorker) *Router {
	t.Helper()
	backends := make([]*Backend, len(workers))
	for i, w := range workers {
		backends[i] = NewBackend(w.name, w.srv.URL)
	}
	rt, err := New(Config{
		Backends:       backends,
		Policy:         PolicyAffinity,
		AttemptTimeout: 2 * time.Second,
		Probe:          fastProbe(),
		AdminToken:     token,
		DrainTimeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	startRouter(t, rt)
	return rt
}

func adminDo(t *testing.T, h http.Handler, method, path, token string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rdr io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rdr)
	if token != "" {
		req.Header.Set("X-Parma-Admin-Token", token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestAdminAuth(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	rt := adminRouter(t, "s3cret", w0)
	h := rt.Handler()

	if rec := adminDo(t, h, http.MethodGet, "/admin/backends", "", nil); rec.Code != http.StatusUnauthorized {
		t.Errorf("no token: status %d, want 401", rec.Code)
	}
	if rec := adminDo(t, h, http.MethodGet, "/admin/backends", "wrong", nil); rec.Code != http.StatusUnauthorized {
		t.Errorf("bad token: status %d, want 401", rec.Code)
	}
	if rec := adminDo(t, h, http.MethodGet, "/admin/backends", "s3cret", nil); rec.Code != http.StatusOK {
		t.Errorf("good token: status %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
	// Bearer form works too.
	req := httptest.NewRequest(http.MethodGet, "/admin/backends", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("bearer token: status %d, want 200", rec.Code)
	}

	// A router started without a token has no admin surface at all.
	w1 := newAdminWorker(t, "w1")
	rtNone := adminRouter(t, "", w1)
	if rec := adminDo(t, rtNone.Handler(), http.MethodGet, "/admin/backends", "s3cret", nil); rec.Code != http.StatusForbidden {
		t.Errorf("tokenless router: status %d, want 403", rec.Code)
	}
}

// TestAddBackendHandsOffAndJoins: adding a member warm-hands the keys the
// ring moves to it before it becomes routable, and the joiner appears in
// membership.
func TestAddBackendHandsOffAndJoins(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	w1 := newAdminWorker(t, "w1")
	rt := adminRouter(t, "tok", w0)
	h := rt.Handler()

	// Find a geometry the two-member ring will give to the joiner.
	future := NewRing([]string{"w0", "w1"}, DefaultVnodes)
	key := ""
	for n := 2; n < 200; n++ {
		k := fmt.Sprintf("%dx%d", n, n)
		if future.Owner(k) == "w1" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key moves to w1 on join")
	}
	var rows, cols int
	fmt.Sscanf(key, "%dx%d", &rows, &cols)
	w0.mu.Lock()
	w0.warm[key] = warmGrid(rows, cols)
	w0.mu.Unlock()

	// Serve one request so the key is a tracked assignment.
	if rec := doRecover(t, h, recoverBody(rows, cols)); rec.Code != http.StatusOK {
		t.Fatalf("priming recover: status %d", rec.Code)
	}

	rec := adminDo(t, h, http.MethodPost, "/admin/backends", "tok",
		AddBackendRequest{Name: "w1", URL: w1.srv.URL})
	if rec.Code != http.StatusOK {
		t.Fatalf("add: status %d: %s", rec.Code, rec.Body.String())
	}
	var mc MembershipChange
	if err := json.Unmarshal(rec.Body.Bytes(), &mc); err != nil {
		t.Fatal(err)
	}
	if len(mc.Members) != 2 {
		t.Fatalf("members after add = %v", mc.Members)
	}
	found := false
	for _, k := range mc.Rehomed["w1"] {
		if k == key {
			found = true
		}
	}
	if !found {
		t.Fatalf("rehomed map %v does not move %s to w1", mc.Rehomed, key)
	}
	if mc.PrewarmedKeys == 0 {
		t.Error("add reported zero prewarmed keys")
	}
	got := w1.prewarmedKeys()
	if len(got) == 0 || got[0] != key {
		t.Fatalf("joiner received prewarm for %v, want [%s ...]", got, key)
	}
	w1.mu.Lock()
	withR := w1.prewarmed[0].R != nil
	w1.mu.Unlock()
	if !withR {
		t.Error("prewarm entry lost the warm R exported by the old owner")
	}

	// Duplicate join is a conflict.
	if rec := adminDo(t, h, http.MethodPost, "/admin/backends", "tok",
		AddBackendRequest{Name: "w1", URL: w1.srv.URL}); rec.Code != http.StatusConflict {
		t.Errorf("duplicate add: status %d, want 409", rec.Code)
	}

	// The healthy joiner took its first synchronous probe and is routable;
	// traffic for its keys lands there.
	rec = doRecover(t, h, recoverBody(rows, cols))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Parma-Backend") != "w1" {
		t.Errorf("post-join recover: status %d backend %q, want 200 from w1",
			rec.Code, rec.Header().Get("X-Parma-Backend"))
	}
}

// TestAddBackendStartsSuspect: a joiner that fails its first probe is a
// member but not routable — suspect until first success.
func TestAddBackendStartsSuspect(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	rt := adminRouter(t, "tok", w0)
	h := rt.Handler()

	rec := adminDo(t, h, http.MethodPost, "/admin/backends", "tok",
		AddBackendRequest{Name: "wdead", URL: "http://127.0.0.1:1"})
	if rec.Code != http.StatusOK {
		t.Fatalf("add: status %d: %s", rec.Code, rec.Body.String())
	}
	backends, _ := rt.membership()
	i := slices.IndexFunc(backends, func(b *Backend) bool { return b.Name == "wdead" })
	if i < 0 {
		t.Fatal("wdead is not a member after add")
	}
	dead := backends[i]
	if dead.Routable() {
		t.Error("dead joiner is routable before any successful probe")
	}
	// Requests still succeed: the suspect member is skipped.
	if rec := doRecover(t, h, recoverBody(6, 6)); rec.Code != http.StatusOK {
		t.Errorf("recover with suspect member: status %d", rec.Code)
	}
}

// TestRemoveBackendDrainsAndRehomes: a coordinated removal cordons the
// victim, hands its keys to ring successors, reports a completed drain,
// and leaves traffic flowing to the survivors.
func TestRemoveBackendDrainsAndRehomes(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	w1 := newAdminWorker(t, "w1")
	rt := adminRouter(t, "tok", w0, w1)
	h := rt.Handler()

	key := keyOwnedBy(t, rt, "w0")
	var rows, cols int
	fmt.Sscanf(key, "%dx%d", &rows, &cols)
	w0.mu.Lock()
	w0.warm[key] = warmGrid(rows, cols)
	w0.mu.Unlock()
	if rec := doRecover(t, h, recoverBody(rows, cols)); rec.Code != http.StatusOK {
		t.Fatalf("priming recover: status %d", rec.Code)
	}

	rec := adminDo(t, h, http.MethodDelete, "/admin/backends/w0", "tok", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("remove: status %d: %s", rec.Code, rec.Body.String())
	}
	var mc MembershipChange
	if err := json.Unmarshal(rec.Body.Bytes(), &mc); err != nil {
		t.Fatal(err)
	}
	if len(mc.Members) != 1 || mc.Members[0] != "w1" {
		t.Fatalf("members after remove = %v, want [w1]", mc.Members)
	}
	if mc.Drained == nil || !*mc.Drained {
		t.Errorf("drain did not complete: %+v", mc.Drained)
	}
	found := false
	for _, k := range mc.Rehomed["w1"] {
		if k == key {
			found = true
		}
	}
	if !found {
		t.Fatalf("rehomed map %v does not move %s to w1", mc.Rehomed, key)
	}
	if got := w1.prewarmedKeys(); len(got) == 0 {
		t.Error("successor received no prewarm push")
	}

	// The victim is gone: traffic re-homes, and a second removal is 404.
	rec = doRecover(t, h, recoverBody(rows, cols))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Parma-Backend") != "w1" {
		t.Errorf("post-remove recover: status %d backend %q, want 200 from w1",
			rec.Code, rec.Header().Get("X-Parma-Backend"))
	}
	if rec := adminDo(t, h, http.MethodDelete, "/admin/backends/w0", "tok", nil); rec.Code != http.StatusNotFound {
		t.Errorf("second remove: status %d, want 404", rec.Code)
	}
	// Refuse to empty the fleet.
	if rec := adminDo(t, h, http.MethodDelete, "/admin/backends/w1", "tok", nil); rec.Code != http.StatusConflict {
		t.Errorf("removing last member: status %d, want 409", rec.Code)
	}
}

// TestBadRequestDoesNotPoisonHandoff: a geometry the workers answer 400
// for must not enter the seen set — one such key would fail the whole
// /v1/warmstate fetch and /v1/prewarm push of every later handoff it
// rides in.
func TestBadRequestDoesNotPoisonHandoff(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	w1 := newAdminWorker(t, "w1")
	rt := adminRouter(t, "tok", w0, w1)
	h := rt.Handler()

	good := keyOwnedBy(t, rt, "w0")
	var rows, cols int
	fmt.Sscanf(good, "%dx%d", &rows, &cols)
	w0.mu.Lock()
	w0.warm[good] = warmGrid(rows, cols)
	w0.mu.Unlock()
	if rec := doRecover(t, h, recoverBody(rows, cols)); rec.Code != http.StatusOK {
		t.Fatalf("priming recover: status %d", rec.Code)
	}
	// An oversize geometry that w0 also owns, so it would ride in the same
	// handoff group as the good key.
	bad := 0
	for n := stubMaxDim + 1; n < 400 && bad == 0; n++ {
		if rt.Ring().Owner(fmt.Sprintf("%dx%d", n, n)) == "w0" {
			bad = n
		}
	}
	if bad == 0 {
		t.Fatal("no oversize geometry owned by w0")
	}
	if rec := doRecover(t, h, recoverBody(bad, bad)); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversize recover: status %d, want the worker's 400 relayed", rec.Code)
	}

	if rec := adminDo(t, h, http.MethodDelete, "/admin/backends/w0", "tok", nil); rec.Code != http.StatusOK {
		t.Fatalf("remove: status %d: %s", rec.Code, rec.Body.String())
	}
	w1.mu.Lock()
	defer w1.mu.Unlock()
	if len(w1.prewarmed) != 1 || w1.prewarmed[0].Key != good {
		t.Fatalf("successor was prewarmed with %v, want exactly [%s]", w1.prewarmed, good)
	}
	if w1.prewarmed[0].R == nil {
		t.Errorf("prewarm entry for %s lost its warm R", good)
	}
}

// TestHandoffChunksWarmState: a successor inheriting more warm state than
// one /v1/warmstate request may carry still gets every field, and nothing
// for the keys the source holds none for. Traffic runs from several
// goroutines, and keeps running through the removal, so the seen set is
// written and read concurrently.
func TestHandoffChunksWarmState(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	w1 := newAdminWorker(t, "w1")
	rt := adminRouter(t, "tok", w0, w1)
	h := rt.Handler()

	const want = 300
	warm := map[string]bool{}
	var keys []string
	var mine, others [][]byte // request bodies for keys w0 owns / w1 owns
	for rows := 1; rows <= stubMaxDim && len(mine) < want; rows++ {
		for cols := stubMaxDim - 15; cols <= stubMaxDim && len(mine) < want; cols++ {
			key := fmt.Sprintf("%dx%d", rows, cols)
			if rt.Ring().Owner(key) != "w0" {
				others = append(others, recoverBody(rows, cols))
				continue
			}
			if len(mine)%3 == 0 {
				warm[key] = true
				w0.warm[key] = warmGrid(rows, cols) // no request is in flight yet
			}
			keys = append(keys, key)
			mine = append(mine, recoverBody(rows, cols))
		}
	}
	if len(mine) != want {
		t.Fatalf("only %d keys owned by w0, want %d", len(mine), want)
	}
	slices.Sort(keys)
	if n := len(serve.WarmChunks(keys)); n < 2 {
		t.Fatalf("w0's keys fit %d chunk, want more", n)
	}
	prime := func(wg *sync.WaitGroup, bodies [][]byte) {
		defer wg.Done()
		for _, body := range bodies {
			if rec := doRecover(t, h, body); rec.Code != http.StatusOK {
				t.Errorf("priming %s: status %d", body, rec.Code)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go prime(&wg, mine[g*want/4:(g+1)*want/4])
	}
	wg.Wait()

	wg.Add(1)
	go prime(&wg, others) // w1's own keys: seen during the removal, moved by it never
	rec := adminDo(t, h, http.MethodDelete, "/admin/backends/w0", "tok", nil)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("remove: status %d: %s", rec.Code, rec.Body.String())
	}
	var mc MembershipChange
	if err := json.Unmarshal(rec.Body.Bytes(), &mc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mc.Rehomed["w1"], keys) || mc.PrewarmedKeys != len(warm) {
		t.Errorf("reply moved %d keys and delivered %d fields, want %d and %d",
			len(mc.Rehomed["w1"]), mc.PrewarmedKeys, len(keys), len(warm))
	}
	w1.mu.Lock()
	defer w1.mu.Unlock()
	if len(w1.prewarmed) != len(warm) {
		t.Fatalf("successor received %d prewarm entries, want %d", len(w1.prewarmed), len(warm))
	}
	for _, e := range w1.prewarmed {
		if !warm[e.Key] || e.R == nil {
			t.Errorf("key %s: warm on source = %v, arrived with R = %v", e.Key, warm[e.Key], e.R != nil)
		}
	}
}

// TestHandoffCarriesWarmStateAboveMaxBody: one /v1/warmstate reply is many
// fields, so it is not bounded by Config.MaxBody (1 MiB, the bound on a
// client's request body). A successor inheriting more than 1 MiB of warm
// state gets every field.
func TestHandoffCarriesWarmStateAboveMaxBody(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	w1 := newAdminWorker(t, "w1")
	rt := adminRouter(t, "tok", w0, w1)
	h := rt.Handler()

	var keys []string
	size := 0 // of w0's warm state on the wire: one chunk, twice the old bound
	for n := stubMaxDim * stubMaxDim; n > 0 && int64(size) <= 2*rt.cfg.MaxBody; n-- {
		rows, cols := 1+(n-1)/stubMaxDim, 1+(n-1)%stubMaxDim // largest geometries first
		key := fmt.Sprintf("%dx%d", rows, cols)
		if rt.Ring().Owner(key) != "w0" {
			continue
		}
		field := warmGrid(rows, cols)
		for _, row := range field {
			for j := range row {
				row[j] += 1 / 3.0 // seventeen digits a value, like a recovered field
			}
		}
		raw, err := json.Marshal(field)
		if err != nil {
			t.Fatal(err)
		}
		size += len(raw)
		keys = append(keys, key)
		w0.warm[key] = field // no request is in flight yet
		if rec := doRecover(t, h, recoverBody(rows, cols)); rec.Code != http.StatusOK {
			t.Fatalf("priming %s: status %d", key, rec.Code)
		}
	}
	slices.Sort(keys)
	if int64(size) <= 2*rt.cfg.MaxBody || len(serve.WarmChunks(keys)) != 1 {
		t.Fatalf("w0's warm state is %d bytes in %d fields, want above %d in one chunk", size, len(w0.warm), 2*rt.cfg.MaxBody)
	}
	if rec := adminDo(t, h, http.MethodDelete, "/admin/backends/w0", "tok", nil); rec.Code != http.StatusOK {
		t.Fatalf("remove: status %d: %s", rec.Code, rec.Body.String())
	}
	w1.mu.Lock()
	defer w1.mu.Unlock()
	if len(w1.prewarmed) != len(w0.warm) {
		t.Fatalf("successor received %d prewarm entries, want %d", len(w1.prewarmed), len(w0.warm))
	}
	for _, e := range w1.prewarmed {
		if e.R == nil {
			t.Errorf("key %s arrived without its R", e.Key)
		}
	}
}

// TestJoinerFetchesFromRoutableSuccessor: when a key's ring owner is
// ejected, the policy has been sending the key to the next routable member,
// so that is where its warm state lives; a joiner inheriting the key is
// handed the field from there, not from the dead owner, which answers
// nothing.
func TestJoinerFetchesFromRoutableSuccessor(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	w1 := newAdminWorker(t, "w1")
	w2 := newAdminWorker(t, "w2")
	rt := adminRouter(t, "tok", w0, w1)
	h := rt.Handler()

	future := NewRing([]string{"w0", "w1", "w2"}, DefaultVnodes)
	rows := 0
	for n := 2; n <= stubMaxDim; n++ {
		if k := fmt.Sprintf("%dx%d", n, n); rt.Ring().Owner(k) == "w0" && future.Owner(k) == "w2" {
			rows = n
			break
		}
	}
	if rows == 0 {
		t.Fatal("no square key moves from w0 to w2 on join")
	}
	key := fmt.Sprintf("%dx%d", rows, rows)
	if rec := doRecover(t, h, recoverBody(rows, rows)); rec.Code != http.StatusOK {
		t.Fatalf("priming recover: status %d", rec.Code)
	}
	ejectDead(t, rt, w0)
	w1.mu.Lock()
	w1.warm[key] = warmGrid(rows, rows) // w1 has served the key since the ejection
	w1.mu.Unlock()

	if rec := adminDo(t, h, http.MethodPost, "/admin/backends", "tok",
		AddBackendRequest{Name: "w2", URL: w2.srv.URL}); rec.Code != http.StatusOK {
		t.Fatalf("add: status %d: %s", rec.Code, rec.Body.String())
	}
	w2.mu.Lock()
	defer w2.mu.Unlock()
	if len(w2.prewarmed) != 1 || w2.prewarmed[0].Key != key {
		t.Fatalf("joiner received %+v, want one entry for %s", w2.prewarmed, key)
	}
	if w2.prewarmed[0].R == nil {
		t.Errorf("joiner received %s without its field; the routable successor held it", key)
	}
}

// ejectDead closes w's server and waits until the router has ejected it.
// Its ejection moves nothing: a dead source answers no fetch.
func ejectDead(t *testing.T, rt *Router, w *adminWorker) {
	t.Helper()
	w.srv.Close()
	backends, _ := rt.membership()
	b := backends[slices.IndexFunc(backends, func(b *Backend) bool { return b.Name == w.name })]
	waitFor(t, 2*time.Second, func() bool { return !b.Probe().Alive }, w.name+"'s ejection")
}

// keyWithChain finds a square geometry whose successor chain on ring
// starts with chain.
func keyWithChain(t *testing.T, ring *Ring, chain ...string) (string, int) {
	t.Helper()
	for n := 2; n <= stubMaxDim; n++ {
		key := fmt.Sprintf("%dx%d", n, n)
		if slices.Equal(ring.Successors(key, len(chain)), chain) {
			return key, n
		}
	}
	t.Fatalf("no square key with ring chain %v", chain)
	return "", 0
}

// TestRemoveServingSuccessorHandsOn: with w0 ejected, w1 serves w0's key.
// Removing w1 moves the key to w2, so w2 must receive the field w1 holds,
// although the key's ring owner, w0, is the same before and after.
func TestRemoveServingSuccessorHandsOn(t *testing.T) {
	w0, w1, w2 := newAdminWorker(t, "w0"), newAdminWorker(t, "w1"), newAdminWorker(t, "w2")
	rt := adminRouter(t, "tok", w0, w1, w2)
	h := rt.Handler()
	key, n := keyWithChain(t, rt.Ring(), "w0", "w1", "w2")

	ejectDead(t, rt, w0)
	if rec := doRecover(t, h, recoverBody(n, n)); rec.Code != http.StatusOK || rec.Header().Get("X-Parma-Backend") != "w1" {
		t.Fatalf("recover with w0 ejected: status %d from %q, want 200 from w1", rec.Code, rec.Header().Get("X-Parma-Backend"))
	}
	w1.mu.Lock()
	w1.warm[key] = warmGrid(n, n)
	w1.mu.Unlock()

	rec := adminDo(t, h, http.MethodDelete, "/admin/backends/w1", "tok", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("remove: status %d: %s", rec.Code, rec.Body.String())
	}
	var mc MembershipChange
	if err := json.Unmarshal(rec.Body.Bytes(), &mc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mc.Rehomed["w2"], []string{key}) || mc.PrewarmedKeys != 1 {
		t.Errorf("reply: rehomed %v, prewarmed %d; want %s moved to w2 with its field", mc.Rehomed, mc.PrewarmedKeys, key)
	}
	w2.mu.Lock()
	defer w2.mu.Unlock()
	if len(w2.prewarmed) != 1 || w2.prewarmed[0].Key != key || w2.prewarmed[0].R == nil {
		t.Fatalf("w2 received %v, want %s with its field", w2.prewarmed, key)
	}
}

// TestJoinerBetweenEjectedOwnerAndServer: with w0 ejected, w1 serves w0's
// key. A joiner landing between them on the ring takes the key over, so it
// must receive the field from w1, although the key's ring owner stays w0.
func TestJoinerBetweenEjectedOwnerAndServer(t *testing.T) {
	w0, w1, w2 := newAdminWorker(t, "w0"), newAdminWorker(t, "w1"), newAdminWorker(t, "w2")
	rt := adminRouter(t, "tok", w0, w1)
	h := rt.Handler()
	key, n := keyWithChain(t, NewRing([]string{"w0", "w1", "w2"}, DefaultVnodes), "w0", "w2", "w1")

	ejectDead(t, rt, w0)
	if rec := doRecover(t, h, recoverBody(n, n)); rec.Code != http.StatusOK || rec.Header().Get("X-Parma-Backend") != "w1" {
		t.Fatalf("recover with w0 ejected: status %d from %q, want 200 from w1", rec.Code, rec.Header().Get("X-Parma-Backend"))
	}
	w1.mu.Lock()
	w1.warm[key] = warmGrid(n, n)
	w1.mu.Unlock()

	rec := adminDo(t, h, http.MethodPost, "/admin/backends", "tok", AddBackendRequest{Name: "w2", URL: w2.srv.URL})
	if rec.Code != http.StatusOK {
		t.Fatalf("add: status %d: %s", rec.Code, rec.Body.String())
	}
	w2.mu.Lock()
	got := slices.Clone(w2.prewarmed)
	w2.mu.Unlock()
	if len(got) != 1 || got[0].Key != key || got[0].R == nil {
		t.Fatalf("joiner received %v, want %s with its field", got, key)
	}
	if rec := doRecover(t, h, recoverBody(n, n)); rec.Header().Get("X-Parma-Backend") != "w2" {
		t.Errorf("after the join %s is served by %q, want w2", key, rec.Header().Get("X-Parma-Backend"))
	}
}

// TestHandoffAboveBodyLimitToRealWorker: a handoff of more warm state than
// one /v1/prewarm body may carry (8 MiB) reaches a real serve.Server in
// chunks, and the server stores every field.
func TestHandoffAboveBodyLimitToRealWorker(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	srv := serve.NewServer(serve.Config{Workers: 1, CacheEntries: 1024, MaxDim: stubMaxDim})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	rt, err := New(Config{
		Backends:   []*Backend{NewBackend("w0", w0.srv.URL), NewBackend("w1", hs.URL)},
		Probe:      fastProbe(),
		AdminToken: "tok",
	})
	if err != nil {
		t.Fatal(err)
	}
	startRouter(t, rt)
	h := rt.Handler()

	size := 0 // of w0's warm state on the wire
	for n := stubMaxDim * stubMaxDim; n > 0 && size <= serve.MaxWarmChunk; n-- {
		rows, cols := 1+(n-1)/stubMaxDim, 1+(n-1)%stubMaxDim // largest geometries first
		key := fmt.Sprintf("%dx%d", rows, cols)
		if rt.Ring().Owner(key) != "w0" {
			continue
		}
		field := warmGrid(rows, cols)
		for _, row := range field {
			for j := range row {
				row[j] += 1 / 3.0 // seventeen digits a value, like a recovered field
			}
		}
		raw, err := json.Marshal(field)
		if err != nil {
			t.Fatal(err)
		}
		size += len(raw)
		w0.warm[key] = field // no request is in flight yet
		if rec := doRecover(t, h, recoverBody(rows, cols)); rec.Code != http.StatusOK {
			t.Fatalf("priming %s: status %d", key, rec.Code)
		}
	}
	rec := adminDo(t, h, http.MethodDelete, "/admin/backends/w0", "tok", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("remove: status %d: %s", rec.Code, rec.Body.String())
	}
	var mc MembershipChange
	if err := json.Unmarshal(rec.Body.Bytes(), &mc); err != nil {
		t.Fatal(err)
	}
	if mc.PrewarmedKeys != len(w0.warm) {
		t.Errorf("reply counts %d fields delivered, want %d", mc.PrewarmedKeys, len(w0.warm))
	}
	var missing []string
	for key := range w0.warm {
		var rows, cols int
		fmt.Sscanf(key, "%dx%d", &rows, &cols)
		if _, ok := srv.Cache().PeekWarmStart(grid.New(rows, cols)); !ok {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		t.Errorf("the worker holds no warm start for %d of %d keys (%d bytes of fields)", len(missing), len(w0.warm), size)
	}
}

// TestEjectHandsOffToSuccessor: when the prober ejects a backend that
// still answers /v1/warmstate, the fields of the keys it was serving go to
// the live backend next on their ring chain, and no others; when it is
// readmitted, the successor hands the keys back with the fields it holds
// by then.
func TestEjectHandsOffToSuccessor(t *testing.T) {
	w0 := newAdminWorker(t, "w0")
	w1 := newAdminWorker(t, "w1")
	rt := adminRouter(t, "tok", w0, w1)
	h := rt.Handler()

	mine := keyOwnedBy(t, rt, "w0")
	for _, key := range []string{mine, keyOwnedBy(t, rt, "w1")} {
		var rows, cols int
		fmt.Sscanf(key, "%dx%d", &rows, &cols)
		if rec := doRecover(t, h, recoverBody(rows, cols)); rec.Code != http.StatusOK {
			t.Fatalf("priming recover: status %d", rec.Code)
		}
		w0.mu.Lock()
		w0.warm[key] = warmGrid(rows, cols)
		w0.mu.Unlock()
	}
	w0.sick.Store(true)
	waitFor(t, 2*time.Second, func() bool { return len(w1.prewarmedKeys()) > 0 }, "ejection handoff to reach w1")
	if got, want := w1.prewarmedKeys(), []string{mine}; !slices.Equal(got, want) {
		t.Fatalf("w1 was prewarmed with %v, want %v", got, want)
	}

	w1.mu.Lock()
	w1.warm[mine] = w1.prewarmed[0].R
	w1.mu.Unlock()
	w0.sick.Store(false)
	waitFor(t, 2*time.Second, func() bool { return len(w0.prewarmedKeys()) > 0 }, "readmission handoff to reach w0")
	if got, want := w0.prewarmedKeys(), []string{mine}; !slices.Equal(got, want) {
		t.Fatalf("w0 was prewarmed with %v on readmission, want %v", got, want)
	}
}
