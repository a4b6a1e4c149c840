package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/guard"
	"repro/internal/scenario"
)

func presetJSON(t testing.TB, name string) []byte {
	t.Helper()
	for _, sp := range scenario.SpecPresets() {
		if sp.Name == name {
			b, err := scenario.MarshalCanonical(&sp)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatalf("no preset %q", name)
	return nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunCachedVsCold: the second submission of an identical spec is a
// cache hit with a byte-identical envelope; a different partition count
// is a different run identity (cold again, different key).
func TestRunCachedVsCold(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	spec := presetJSON(t, "incast")

	cold := post(t, ts.URL+"/v1/run", spec)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", cold.StatusCode, readAll(t, cold))
	}
	if h := cold.Header.Get("X-Powersim-Cache"); h != "miss" {
		t.Fatalf("cold run cache header %q, want miss", h)
	}
	coldBody := readAll(t, cold)

	hit := post(t, ts.URL+"/v1/run", spec)
	if h := hit.Header.Get("X-Powersim-Cache"); h != "hit" {
		t.Fatalf("second run cache header %q, want hit", h)
	}
	hitBody := readAll(t, hit)
	if !bytes.Equal(coldBody, hitBody) {
		t.Fatal("cached envelope differs from cold envelope")
	}

	var env struct {
		V     int             `json:"v"`
		Key   string          `json:"key"`
		Parts int             `json:"parts"`
		Res   json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(coldBody, &env); err != nil {
		t.Fatal(err)
	}
	if env.V != scenario.SpecVersion || env.Parts != 1 || len(env.Key) != 64 || len(env.Res) == 0 {
		t.Fatalf("malformed envelope: v=%d parts=%d key=%q", env.V, env.Parts, env.Key)
	}

	sharded := post(t, ts.URL+"/v1/run?parts=2", spec)
	if h := sharded.Header.Get("X-Powersim-Cache"); h != "miss" {
		t.Fatalf("parts=2 should be a distinct run identity, got cache %q", h)
	}
	var env2 struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(readAll(t, sharded), &env2); err != nil {
		t.Fatal(err)
	}
	if env2.Key == env.Key {
		t.Fatal("parts=1 and parts=2 share a cache key")
	}
}

// TestDiskCacheSurvivesRestart: a new Server over the same CacheDir
// answers from cache without rerunning.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := presetJSON(t, "fairness")
	_, ts := newTestServer(t, Config{CacheDir: dir})
	first := readAll(t, post(t, ts.URL+"/v1/run", spec))

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	s2.run = func(*scenario.Spec, int) (*scenario.Result, error) {
		t.Error("restarted server reran a cached spec")
		return nil, nil
	}
	resp := post(t, ts2.URL+"/v1/run", spec)
	if h := resp.Header.Get("X-Powersim-Cache"); h != "hit" {
		t.Fatalf("restart lookup: cache %q, want hit", h)
	}
	if !bytes.Equal(first, readAll(t, resp)) {
		t.Fatal("envelope changed across restart")
	}
}

// TestBadRequests: non-canonical or malformed submissions are rejected
// with 400 before any run, and a body past maxBodyBytes with 413.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := strings.Repeat(" ", maxBodyBytes) + "[]"
	for name, tc := range map[string]struct {
		url    string
		body   string
		status int
		kind   string
	}{
		"unknown field":  {"/v1/run", `{"v":1,"seed":1,"scheme":"powertcp","topo":{"kind":"star","hosts":4},"horizon_us":50,"bogus":1}`, 400, "decode"},
		"not json":       {"/v1/run", `hello`, 400, "decode"},
		"foreign v":      {"/v1/run", `{"v":99,"seed":1,"scheme":"powertcp","topo":{"kind":"star","hosts":4},"horizon_us":50}`, 400, "decode"},
		"bad parts":      {"/v1/run?parts=0", `{}`, 400, "decode"},
		"non-int parts":  {"/v1/run?parts=x", `{}`, 400, "decode"},
		"suite not list": {"/v1/suite", `{"v":1}`, 400, "decode"},
		"swift scheme":   {"/v1/run", `{"v":2,"seed":1,"scheme":"swift","topo":{"kind":"star","hosts":4},"horizon_us":50}`, 400, "decode"},
		"cubic scheme":   {"/v1/run", `{"v":2,"seed":1,"scheme":"cubic","topo":{"kind":"star","hosts":4},"horizon_us":50}`, 400, "decode"},
		"huge run":       {"/v1/run", huge, 413, "too_large"},
		"huge suite":     {"/v1/suite", huge, 413, "too_large"},
	} {
		resp := post(t, ts.URL+tc.url, []byte(tc.body))
		var eb errorBody
		if err := json.Unmarshal(readAll(t, resp), &eb); err != nil {
			t.Errorf("%s: error body: %v", name, err)
		}
		if resp.StatusCode != tc.status || eb.Kind != tc.kind {
			t.Errorf("%s: status %d kind %q, want %d %q", name, resp.StatusCode, eb.Kind, tc.status, tc.kind)
		}
	}
}

// TestRunFailureTyped: a run that trips its budget comes back 422 with
// the typed kind, and the daemon keeps serving.
func TestRunFailureTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: guard.Budget{MaxEvents: 500}})
	resp := post(t, ts.URL+"/v1/run", presetJSON(t, "incast"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(readAll(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Kind != "budget" || !strings.Contains(eb.Error, "events") {
		t.Fatalf("error envelope %+v, want budget/events", eb)
	}
	// The daemon survives the failure and keeps serving.
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a failed run: %d, want 200", health.StatusCode)
	}
}

// TestOutOfDomainSpecRefusedBeforeRun: a spec that decodes but offers a
// load of 7 comes back 422 with the scenario layer's own error naming the
// field and value. The one-event budget shows it never ran: had a single
// event fired, the trip would have been kind "budget".
func TestOutOfDomainSpecRefusedBeforeRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: guard.Budget{MaxEvents: 1}})
	body := `{"v":2,"seed":1,"scheme":"powertcp","topo":{"kind":"fattree","servers_per_tor":2},` +
		`"traffic":[{"kind":"poisson","load":7,"gen_horizon_us":100}],"horizon_us":200}`
	resp := post(t, ts.URL+"/v1/run", []byte(body))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(readAll(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Kind != "run" || !strings.Contains(eb.Error, "Load 7 is outside (0, 1]") {
		t.Fatalf("error envelope %+v, want kind run naming Load 7", eb)
	}
}

// TestOverloadSheds: with one worker wedged and the queue full, the
// next submission is shed with 429 + Retry-After instead of piling up.
func TestOverloadSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 0, RetryAfterSec: 7})
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s.run = func(*scenario.Spec, int) (*scenario.Result, error) {
		once.Do(func() { close(started) })
		<-block
		return &scenario.Result{Experiment: "stub"}, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := post(t, ts.URL+"/v1/run", presetJSON(t, "incast"))
		readAll(t, resp)
	}()
	<-started // the lone worker is now wedged and the admission token held

	shed := post(t, ts.URL+"/v1/run", presetJSON(t, "fairness"))
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", shed.StatusCode)
	}
	if ra := shed.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want 7", ra)
	}
	close(block)
	wg.Wait()

	var st Stats
	if err := json.Unmarshal(readAll(t, post(t, ts.URL+"/v1/stats", nil)), &st); err == nil && st.Shed != 1 {
		t.Fatalf("shed counter %d, want 1", st.Shed)
	}
}

// TestSuiteFanOut: a suite request answers every spec, reuses the cache
// across duplicates, and isolates per-spec failures.
func TestSuiteFanOut(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	incast := presetJSON(t, "incast")
	bad := []byte(`{"v":1,"seed":1,"scheme":"no-such-scheme","topo":{"kind":"star","hosts":4},"traffic":[{"kind":"permutation"}],"horizon_us":50}`)
	body := []byte("[" + string(incast) + "," + string(bad) + "," + string(incast) + "]")

	resp := post(t, ts.URL+"/v1/suite", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var out []struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
		Error  *struct{ Error, Kind string }
	}
	if err := json.Unmarshal(readAll(t, resp), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d slots, want 3", len(out))
	}
	if out[0].Error != nil || out[2].Error != nil || out[1].Error == nil {
		t.Fatalf("failure isolation broken: %+v", out)
	}
	if !bytes.Equal(out[0].Result, out[2].Result) || out[0].Key != out[2].Key {
		t.Fatal("duplicate specs in one suite disagree")
	}
}

// TestDrain: draining flips healthz to 503, sheds new submissions with
// 503, waits for in-flight work, and leaves nothing in the cache
// directory but the entries themselves.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir})
	readAll(t, post(t, ts.URL+"/v1/run", presetJSON(t, "incast")))

	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	shed := post(t, ts.URL+"/v1/run", presetJSON(t, "fairness"))
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: %d, want 503", shed.StatusCode)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || len(files[0].Name()) != 64+len(".json") {
		t.Fatalf("cache dir after drain holds %v, want exactly one <64-hex>.json entry", files)
	}
}

// TestLoadCacheIgnoresStrayFiles: only <64-hex>.json names are entries.
// An index.json from an older daemon, an interrupted store's .tmp and a
// short-named .json are left alone, not loaded under bogus keys. Every
// file holds a real envelope, so only its name decides.
func TestLoadCacheIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	_, file, env := parentEntry(t)
	key := strings.TrimSuffix(file, ".json")
	for _, name := range []string{key + ".json", "index.json", key + ".json.tmp", "abc123.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), env, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache[key]; !ok || len(s.cache) != 1 {
		t.Fatalf("loaded %d entries (real one present: %v), want only the 64-hex entry", len(s.cache), ok)
	}
}

// TestEnvelopeMatchesDirectRun: the served result payload is exactly
// what scenario.Run computes for the same spec — serving adds no
// transformation.
func TestEnvelopeMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := presetJSON(t, "permutation")
	sp, err := scenario.DecodeSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	sup := &guard.Supervisor{}
	want, err := sup.RunSpec(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := want.EncodeJSON(&encoded); err != nil {
		t.Fatal(err)
	}
	// The envelope embeds the Result compacted; compact the direct
	// encoding the same way before comparing bytes.
	var wantCompact bytes.Buffer
	if err := json.Compact(&wantCompact, encoded.Bytes()); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(readAll(t, post(t, ts.URL+"/v1/run", raw)), &env); err != nil {
		t.Fatal(err)
	}
	if got, want := string(env.Result), wantCompact.String(); got != want {
		t.Fatalf("served result differs from direct run:\n got %.200s\nwant %.200s", got, want)
	}
}

// parentEntry returns the one disk-cache entry under testdata/cache: the
// envelope the commit before the one-pass encoder answered preset incast
// at seed 100, parts 1 with, under the name it stored it by.
func parentEntry(t *testing.T) (spec []byte, name string, env []byte) {
	t.Helper()
	files, err := os.ReadDir(filepath.Join("testdata", "cache"))
	if err != nil || len(files) != 1 {
		t.Fatalf("testdata/cache: %v, %d files, want 1", err, len(files))
	}
	env, err = os.ReadFile(filepath.Join("testdata", "cache", files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.DecodeSpec(presetJSON(t, "incast"))
	if err != nil {
		t.Fatal(err)
	}
	sp.Seed = 100
	spec, err = scenario.MarshalCanonical(sp)
	if err != nil {
		t.Fatal(err)
	}
	return spec, files[0].Name(), env
}

// TestEnvelopeGolden pins one whole /v1/run envelope byte for byte, key
// included: the envelope is appended by hand, and both it and the key
// are a contract with every cache directory already written.
func TestEnvelopeGolden(t *testing.T) {
	spec, name, want := parentEntry(t)
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{CacheDir: dir})
	resp := post(t, ts.URL+"/v1/run", spec)
	if h := resp.Header.Get("X-Powersim-Cache"); h != "miss" {
		t.Fatalf("cache %q, want miss", h)
	}
	if got := readAll(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("envelope drifted:\n got %s\nwant %s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
		t.Fatalf("entry not stored under the parent's name: %v", err)
	}
}

// TestParentCacheDirStillHits: a server started on a cache directory the
// parent commit wrote answers from it without running anything.
func TestParentCacheDirStillHits(t *testing.T) {
	spec, name, want := parentEntry(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), want, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{CacheDir: dir})
	s.run = func(*scenario.Spec, int) (*scenario.Result, error) {
		t.Error("reran a spec the parent's cache directory holds")
		return nil, errors.New("not run")
	}
	resp := post(t, ts.URL+"/v1/run", spec)
	if h := resp.Header.Get("X-Powersim-Cache"); h != "hit" {
		t.Fatalf("cache %q, want hit", h)
	}
	if !bytes.Equal(readAll(t, resp), want) {
		t.Fatal("hit differs from the stored entry")
	}
}

// hitHandler returns a server's handler with the canonical websearch
// preset answered twice (a miss, then a hit that records its body), and
// a function that sends that body again with no socket.
func hitHandler(tb testing.TB) func() *httptest.ResponseRecorder {
	s, err := New(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	spec := presetJSON(tb, "websearch")
	hit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(spec)))
		return rec
	}
	if rec := hit(); rec.Code != http.StatusOK {
		tb.Fatalf("cold run: %d %s", rec.Code, rec.Body)
	}
	if rec := hit(); rec.Header().Get("X-Powersim-Cache") != "hit" {
		tb.Fatal("second submission missed")
	}
	return hit
}

// TestHitAllocations is the ceiling on a cache hit of a recorded
// canonical body with the handler called directly, request and recorder
// included: measured 24 allocations (25 under the race detector),
// allowed 10% more. Of the 24, the test's request and its body reader
// are 11 and the recorder 7 (3 to make it, 4 to snapshot the headers and
// buffer the body). The handler makes 6: the parts query, the body and
// its MaxBytesReader, the header map and two header values. Decoding and
// keying are off the path. Nothing on it is pooled, so the race
// detector's dropped sync.Pool Puts do not move the count.
func TestHitAllocations(t *testing.T) {
	hit := hitHandler(t)
	const ceiling = 26
	if got := testing.AllocsPerRun(200, func() { hit() }); got > ceiling {
		t.Errorf("a cache hit makes %.0f allocations, ceiling %d", got, ceiling)
	}
}

// BenchmarkHit is one cache hit of a recorded canonical body through
// Handler().ServeHTTP into a recorder, no socket.
func BenchmarkHit(b *testing.B) {
	hit := hitHandler(b)
	b.ReportAllocs()
	for b.Loop() {
		hit()
	}
}

// recorded is how many request bodies s answers through their digest.
func recorded(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bodies)
}

// TestDigestPath walks one server through a schedule of bodies and
// checks, after each request, the status, the cache header, the bytes
// and how many bodies are recorded. A canonical body is a miss, then a
// hit through decoding that records it, then hits through its digest;
// other spellings of the same spec hit and are never recorded; parts=2
// is its own entry; an undecodable body is refused every time.
func TestDigestPath(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	canon := presetJSON(t, "incast")
	tail := `,"v":2}`
	if !bytes.HasSuffix(canon, []byte(tail)) {
		t.Fatalf("canonical incast does not end in %s: %s", tail, canon)
	}
	reordered := []byte(`{"v":2,` + string(canon[1:len(canon)-len(tail)]) + "}")
	spaced := []byte(" " + string(canon) + "\n")
	v1 := bytes.Replace(canon, []byte(`"v":2`), []byte(`"v":1`), 1)
	bad := []byte(`{"v":2,"bogus":1}`)

	first := map[string][]byte{} // path → the miss's bytes
	for _, st := range []struct {
		name   string
		path   string
		body   []byte
		status int
		cache  string
		bodies int // recorded after the request
	}{
		{"canonical, miss", "/v1/run", canon, 200, "miss", 0},
		{"canonical, hit through decode", "/v1/run", canon, 200, "hit", 1},
		{"canonical, hit through digest", "/v1/run", canon, 200, "hit", 1},
		{"canonical, hit through digest again", "/v1/run", canon, 200, "hit", 1},
		{"whitespace", "/v1/run", spaced, 200, "hit", 1},
		{"reordered keys", "/v1/run", reordered, 200, "hit", 1},
		{"v 1", "/v1/run", v1, 200, "hit", 1},
		{"whitespace again", "/v1/run", spaced, 200, "hit", 1},
		{"parts 2, miss", "/v1/run?parts=2", canon, 200, "miss", 1},
		{"parts 2, hit through decode", "/v1/run?parts=2", canon, 200, "hit", 2},
		{"parts 2, hit through digest", "/v1/run?parts=2", canon, 200, "hit", 2},
		{"undecodable", "/v1/run", bad, 400, "", 2},
		{"undecodable again", "/v1/run", bad, 400, "", 2},
	} {
		resp := post(t, ts.URL+st.path, st.body)
		got := readAll(t, resp)
		if resp.StatusCode != st.status || resp.Header.Get("X-Powersim-Cache") != st.cache {
			t.Fatalf("%s: status %d cache %q, want %d %q: %s", st.name, resp.StatusCode,
				resp.Header.Get("X-Powersim-Cache"), st.status, st.cache, got)
		}
		if st.status == 200 {
			if want, ok := first[st.path]; !ok {
				first[st.path] = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s: bytes differ from the miss's", st.name)
			}
		}
		if n := recorded(s); n != st.bodies {
			t.Fatalf("%s: %d bodies recorded, want %d", st.name, n, st.bodies)
		}
	}
	if bytes.Equal(first["/v1/run"], first["/v1/run?parts=2"]) {
		t.Fatal("parts=1 and parts=2 share an envelope")
	}

	// A suite element takes the same path: the recorded body hits through
	// its digest, a new canonical element misses, then hits through
	// decoding and is recorded, then hits through its digest.
	fair := presetJSON(t, "fairness")
	suite := []byte("[" + string(canon) + "," + string(fair) + "]")
	var slots [3][]struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	for i, wantBodies := range []int{2, 3, 3} {
		resp := post(t, ts.URL+"/v1/suite", suite)
		if err := json.Unmarshal(readAll(t, resp), &slots[i]); err != nil || len(slots[i]) != 2 {
			t.Fatalf("suite %d: %v, %d slots", i, err, len(slots[i]))
		}
		if n := recorded(s); n != wantBodies {
			t.Fatalf("suite %d: %d bodies recorded, want %d", i, n, wantBodies)
		}
	}
	for i := range slots {
		// A slot's result is the whole envelope /v1/run answers.
		if !bytes.Equal(slots[i][0].Result, first["/v1/run"]) || !bytes.Equal(slots[i][1].Result, slots[0][1].Result) ||
			slots[i][1].Key != slots[0][1].Key {
			t.Fatalf("suite %d: a slot differs from the first answer", i)
		}
	}

	// The counts are the slow path's: 13 run and 3 suite requests; 3 runs
	// (incast at parts 1 and 2, fairness); 9 hits among the 11 run
	// answers and 5 among the 6 suite slots. Recorded bodies are not
	// entries.
	var stats Stats
	if err := json.Unmarshal(readAll(t, post(t, ts.URL+"/v1/stats", nil)), &stats); err != nil {
		t.Fatal(err)
	}
	want := Stats{Requests: 16, CacheHits: 9 + 5, Runs: 3, Entries: 3}
	if stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
}

// TestDigestPathConcurrent: two clients resend one canonical body at
// once; every answer is the miss's bytes and nothing runs again. The
// race detector (CI's serving step) checks the recording.
func TestDigestPathConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	canon := presetJSON(t, "incast")
	want := readAll(t, post(t, ts.URL+"/v1/run", canon))
	s.run = func(*scenario.Spec, int) (*scenario.Result, error) {
		t.Error("a cached spec ran again")
		return nil, errors.New("not run")
	}
	const each = 20
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(canon))
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.Header.Get("X-Powersim-Cache") != "hit" || !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("concurrent resubmission: cache %q, bytes equal %v",
						resp.Header.Get("X-Powersim-Cache"), bytes.Equal(buf.Bytes(), want))
				}
			}
		}()
	}
	wg.Wait()
	if got := s.cacheHits.Load(); got != 2*each {
		t.Fatalf("%d hits, want %d", got, 2*each)
	}
	if n := recorded(s); n != 1 {
		t.Fatalf("%d bodies recorded, want 1", n)
	}
}

// TestDiskEntryNamesItsKey: the parent's entry copied under the name of
// another spec's key is neither loaded at start nor promoted on lookup.
// The request for that other spec runs, answers under its own key, and
// overwrites the file; its body is not recorded.
func TestDiskEntryNamesItsKey(t *testing.T) {
	_, name, env := parentEntry(t)
	sp, err := scenario.DecodeSpec(presetJSON(t, "incast"))
	if err != nil {
		t.Fatal(err)
	}
	sp.Seed = 101
	other, err := scenario.MarshalCanonical(sp)
	if err != nil {
		t.Fatal(err)
	}
	key, err := scenario.SpecKey(sp, sp.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if key+".json" == name {
		t.Fatal("seed 101 has the parent entry's key")
	}
	for _, atStart := range []bool{true, false} {
		dir := t.TempDir()
		path := filepath.Join(dir, key+".json")
		if atStart {
			if err := os.WriteFile(path, env, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, ts := newTestServer(t, Config{CacheDir: dir})
		if _, ok := s.cache[key]; ok {
			t.Fatal("loaded an envelope under another key's name")
		}
		if !atStart {
			if err := os.WriteFile(path, env, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		resp := post(t, ts.URL+"/v1/run", other)
		got := readAll(t, resp)
		if h := resp.Header.Get("X-Powersim-Cache"); h != "miss" || !namesKey(got, key) {
			t.Fatalf("at start %v: cache %q, answer names its key %v, want a miss under %s", atStart, h, namesKey(got, key), key)
		}
		if recorded(s) != 0 {
			t.Fatalf("at start %v: the miss recorded its body", atStart)
		}
		if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, got) {
			t.Fatalf("at start %v: the file was not overwritten with the answer (%v)", atStart, err)
		}
	}
}

// A request refused before any run is an error whose text is the body's
// message, the same whether it is read as an error or as a body.
func TestRequestErrorCarriesItsMessage(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.draining.Store(true)
	err := s.acquire()
	if err == nil || err.Error() != "server is draining" {
		t.Fatalf("acquire while draining = %v, want \"server is draining\"", err)
	}
	if body := runErrorBody(err); body.Error != err.Error() || body.Kind != "draining" {
		t.Fatalf("body = %+v, want the error's message under kind draining", body)
	}
}
