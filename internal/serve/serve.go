// Package serve implements the powersimd HTTP service: scenario Specs
// come in as canonical JSON, run under a guard.Supervisor, and leave as
// Result envelopes addressed by their content key. Identical submissions
// never recompute — the (canonical spec, seed, parts) hash is the cache
// key, and simulation determinism guarantees the cached envelope is
// byte-identical to a fresh run. A body that is byte for byte the
// canonical form of a spec already answered from the cache is not even
// decoded again: its sha256 and parts name the entry directly.
//
// The package deliberately lives OUTSIDE the simulation-path
// determinism contract (see internal/analysis): admission control,
// Retry-After hints, and request timeouts are wall-clock concerns, and
// this is the only layer (with cmd/powersimd) allowed to have them.
// Nothing here schedules onto a sim engine; budgets are enforced inside
// guard at deterministic sim-time checkpoints.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/guard"
	"repro/internal/scenario"
)

// Config tunes one Server.
type Config struct {
	// Workers bounds concurrently executing simulations; ≤0 means 1.
	Workers int
	// Queue bounds requests waiting for a worker beyond the ones
	// running; a submission beyond Workers+Queue is shed with 429.
	Queue int
	// RetryAfterSec is the Retry-After hint (seconds) sent with 429
	// and 503 responses; ≤0 means 1.
	RetryAfterSec int
	// CacheDir, when non-empty, persists every envelope on disk so a
	// restarted daemon still answers repeats from cache.
	CacheDir string
	// Budget is applied to every supervised run.
	Budget guard.Budget
	// ReproDir, when non-empty, receives repro bundles for failed runs.
	ReproDir string
}

// Stats is the /v1/stats snapshot.
type Stats struct {
	Requests  uint64 `json:"requests"`
	CacheHits uint64 `json:"cache_hits"`
	Runs      uint64 `json:"runs"`
	Failures  uint64 `json:"failures"`
	Shed      uint64 `json:"shed"`
	Entries   int    `json:"cache_entries"`
	Draining  bool   `json:"draining"`
}

// Server is the powersimd request brain: content-addressed result
// cache, bounded admission, and a guard.Supervisor around every run.
// Construct with New; the zero value is not usable.
type Server struct {
	cfg Config

	// admit bounds admitted-but-unfinished submissions (running +
	// queued); workers bounds the running ones.
	admit   chan struct{}
	workers chan struct{}

	// run executes one (spec, parts) run. It defaults to the
	// supervisor; tests swap in a blocking stand-in to saturate
	// admission deterministically.
	run func(sp *scenario.Spec, parts int) (*scenario.Result, error)

	draining atomic.Bool
	inflight sync.WaitGroup

	mu    sync.Mutex
	cache map[string][]byte // key → envelope bytes
	// bodies maps a request body to the cache entry it was answered with.
	// Only a canonical body answered by a hit is recorded, so there is at
	// most one per entry, and a body sent once takes no room.
	bodies map[bodyKey]entry

	requests  atomic.Uint64
	cacheHits atomic.Uint64
	runs      atomic.Uint64
	failures  atomic.Uint64
	shed      atomic.Uint64
}

// New builds a Server and, when CacheDir is set, reloads previously
// persisted envelopes.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.RetryAfterSec <= 0 {
		cfg.RetryAfterSec = 1
	}
	s := &Server{
		cfg:     cfg,
		admit:   make(chan struct{}, cfg.Workers+cfg.Queue),
		workers: make(chan struct{}, cfg.Workers),
		cache:   make(map[string][]byte),
		bodies:  make(map[bodyKey]entry),
	}
	sup := &guard.Supervisor{Budget: cfg.Budget, ReproDir: cfg.ReproDir}
	s.run = sup.RunSpec
	if cfg.CacheDir != "" {
		if err := s.loadCache(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Handler returns the HTTP API:
//
//	POST /v1/run?parts=N   Spec JSON → Result envelope (X-Powersim-Cache: hit|miss)
//	POST /v1/suite?parts=N JSON array of Specs → array of envelopes/errors
//	GET  /v1/stats         counters snapshot
//	GET  /healthz          200 while serving, 503 while draining
//
// parts (default 1) is the worker count a run steps the fabric's own
// shards on — one a pod or a leaf — so it never multiplies engines;
// results are byte-identical at any value, and the cache key includes it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/suite", s.handleSuite)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// Drain stops admitting work and waits for in-flight runs to finish.
// Every entry is already on disk by then (store persists as it goes), so
// there is nothing to flush and the error is always nil. Used on SIGTERM.
func (s *Server) Drain() error {
	s.draining.Store(true)
	s.inflight.Wait()
	return nil
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error  string `json:"error"`
	Kind   string `json:"kind"`
	Bundle string `json:"bundle,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a scenario Spec", "method")
		return
	}
	parts, ok := partsParam(w, r)
	if !ok {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	_, env, hit, err := s.answer(body, parts)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	if hit {
		w.Header().Set("X-Powersim-Cache", "hit")
	} else {
		w.Header().Set("X-Powersim-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(env)
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a JSON array of Specs", "method")
		return
	}
	// Admission is per spec inside resolve — holding a worker slot here
	// while the fan-out waits for workers would deadlock at Workers=1.
	// Individual specs past capacity come back as per-slot overload
	// errors instead of failing the whole suite.
	parts, ok := partsParam(w, r)
	if !ok {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(body, &raws); err != nil {
		httpError(w, http.StatusBadRequest, "suite body must be a JSON array of Specs: "+err.Error(), "decode")
		return
	}

	type slot struct {
		Key    string          `json:"key,omitempty"`
		Result json.RawMessage `json:"result,omitempty"`
		Error  *errorBody      `json:"error,omitempty"`
	}
	out := make([]slot, len(raws))
	var wg sync.WaitGroup
	for i, raw := range raws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key, env, _, err := s.answer(raw, parts)
			if err != nil {
				out[i].Error = runErrorBody(err)
				return
			}
			out[i] = slot{Key: key, Result: env}
		}()
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := len(s.cache)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(Stats{
		Requests:  s.requests.Load(),
		CacheHits: s.cacheHits.Load(),
		Runs:      s.runs.Load(),
		Failures:  s.failures.Load(),
		Shed:      s.shed.Load(),
		Entries:   entries,
		Draining:  s.draining.Load(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// maxBodyBytes bounds a request body, a suite's too; the largest preset is 451.
const maxBodyBytes = 1 << 20

// readBody reads the body once, into a buffer sized from Content-Length if there is one,
// and answers the request itself on failure: 413 for a body past maxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	var err error
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes {
		body = make([]byte, n)
		_, err = io.ReadFull(rd, body)
	} else {
		body, err = io.ReadAll(rd)
	}
	switch {
	case err == nil:
	case errors.As(err, new(*http.MaxBytesError)): // the target escapes: only on a failed read
		httpError(w, http.StatusRequestEntityTooLarge, err.Error(), "too_large")
	default:
		httpError(w, http.StatusBadRequest, err.Error(), "read")
	}
	return body, err == nil
}

// partsParam reads ?parts=N, the run's worker count (see Handler).
func partsParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	parts := 1
	if v := r.URL.Query().Get("parts"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "parts must be a positive integer", "decode")
			return 0, false
		}
		parts = n
	}
	return parts, true
}

// entry is one cache entry: a content key and the envelope it names.
type entry struct {
	key string
	env []byte
}

// bodyKey names a request exactly: its body's sha256 and its parts.
type bodyKey struct {
	sum   [sha256.Size]byte
	parts int
}

// answer resolves one request body, a /v1/run body or a /v1/suite
// element, to its content key and envelope. A body recorded in bodies is
// a digest and a map read. That is exact: the key is a pure function of
// (body, parts), and the envelope of a key never changes (resolve). Any
// other body is decoded and keyed, and recorded when it is canonical and
// resolve answers it from the cache.
func (s *Server) answer(body []byte, parts int) (key string, env []byte, hit bool, err error) {
	bk := bodyKey{sha256.Sum256(body), parts}
	s.mu.Lock()
	e, ok := s.bodies[bk]
	s.mu.Unlock()
	if ok {
		s.cacheHits.Add(1)
		return e.key, e.env, true, nil
	}
	sp, err := scenario.DecodeSpec(body)
	if err != nil {
		return "", nil, false, &requestError{status: http.StatusBadRequest, kind: "decode", msg: err.Error()}
	}
	key, canonical, err := scenario.SpecKeyOf(sp, sp.Seed, parts, body)
	if err != nil {
		return "", nil, false, &requestError{status: http.StatusBadRequest, kind: "decode", msg: err.Error()}
	}
	env, hit, err = s.resolve(sp, key, parts)
	if err != nil {
		return "", nil, false, err
	}
	if hit && canonical {
		s.mu.Lock()
		s.bodies[bk] = entry{key, env}
		s.mu.Unlock()
	}
	return key, env, hit, nil
}

// resolve answers one (spec, parts) submission under its content key:
// cache first, then a supervised run behind admission control. The
// returned envelope bytes for a given key are identical forever — cold
// runs store exactly what later hits return.
func (s *Server) resolve(sp *scenario.Spec, key string, parts int) (env []byte, hit bool, err error) {
	if env := s.lookup(key); env != nil {
		s.cacheHits.Add(1)
		return env, true, nil
	}
	if err := s.acquire(); err != nil {
		return nil, false, err
	}
	defer s.release()

	// Double-check after the possible queue wait: an identical
	// submission may have landed the entry meanwhile.
	if env := s.lookup(key); env != nil {
		s.cacheHits.Add(1)
		return env, true, nil
	}
	s.runs.Add(1)
	res, err := s.run(sp, parts)
	if err == nil {
		env, err = encodeEnvelope(key, sp.Seed, parts, res)
	}
	if err != nil {
		s.failures.Add(1)
		return nil, false, err
	}
	s.store(key, env)
	return env, false, nil
}

// requestError carries an HTTP status decided before any run happened.
type requestError struct {
	status int
	kind   string
	msg    string
}

func (e *requestError) Error() string { return e.msg }

// acquire takes an admission token (non-blocking — full queue sheds the
// request) and then a worker slot (blocking — this is the queue wait).
func (s *Server) acquire() error {
	if s.draining.Load() {
		return &requestError{status: http.StatusServiceUnavailable, kind: "draining", msg: "server is draining"}
	}
	select {
	case s.admit <- struct{}{}:
	default:
		s.shed.Add(1)
		return &requestError{status: http.StatusTooManyRequests, kind: "overload", msg: "queue full, retry later"}
	}
	s.inflight.Add(1)
	s.workers <- struct{}{}
	return nil
}

func (s *Server) release() {
	<-s.workers
	<-s.admit
	s.inflight.Done()
}

func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var re *requestError
	if errors.As(err, &re) {
		if re.status == http.StatusTooManyRequests || re.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSec))
		}
		httpError(w, re.status, re.msg, re.kind)
		return
	}
	body := runErrorBody(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusUnprocessableEntity)
	json.NewEncoder(w).Encode(body)
}

// runErrorBody maps guard's typed errors to the error envelope.
func runErrorBody(err error) *errorBody {
	var (
		be *guard.BudgetExceeded
		le *guard.LivelockError
		pe *guard.PanicError
		re *requestError
	)
	switch {
	case errors.As(err, &re):
		return &errorBody{Error: re.msg, Kind: re.kind}
	case errors.As(err, &be):
		return &errorBody{Error: be.Error(), Kind: "budget", Bundle: be.Bundle}
	case errors.As(err, &le):
		return &errorBody{Error: le.Error(), Kind: "livelock", Bundle: le.Bundle}
	case errors.As(err, &pe):
		return &errorBody{Error: pe.Error(), Kind: "panic", Bundle: pe.Bundle}
	default:
		return &errorBody{Error: err.Error(), Kind: "run"}
	}
}

func httpError(w http.ResponseWriter, status int, msg, kind string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg, Kind: kind})
}

// encodeEnvelope writes the /v1/run response: run identity, then the
// Result document, compact. The bytes are produced once per key and
// cached verbatim, so cold and hit responses are byte-identical.
func encodeEnvelope(key string, seed int64, parts int, res *scenario.Result) ([]byte, error) {
	result, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	head := fmt.Sprintf(`{"v":%d,"key":"%s","seed":%d,"parts":%d,"result":`, scenario.SpecVersion, key, seed, parts)
	env := make([]byte, 0, len(head)+len(result)+1) // kept for the server's life: no spare capacity
	return append(append(append(env, head...), result...), '}'), nil
}

// lookup checks memory first, then the disk cache (promoting a disk hit
// into memory). A disk file whose envelope names another key is not an
// entry: it is not served, and the run that follows overwrites it.
func (s *Server) lookup(key string) []byte {
	s.mu.Lock()
	env, ok := s.cache[key]
	s.mu.Unlock()
	if ok {
		return env
	}
	if s.cfg.CacheDir == "" {
		return nil
	}
	b, err := os.ReadFile(s.entryPath(key))
	if err != nil || !namesKey(b, key) {
		return nil
	}
	s.mu.Lock()
	s.cache[key] = b
	s.mu.Unlock()
	return b
}

func (s *Server) store(key string, env []byte) {
	s.mu.Lock()
	s.cache[key] = env
	s.mu.Unlock()
	if s.cfg.CacheDir == "" {
		return
	}
	// Best-effort persistence: a failed write only costs a future
	// recomputation. Write-then-rename keeps readers off partial files.
	tmp := s.entryPath(key) + ".tmp"
	if err := os.WriteFile(tmp, env, 0o644); err == nil {
		os.Rename(tmp, s.entryPath(key))
	}
}

func (s *Server) entryPath(key string) string {
	return filepath.Join(s.cfg.CacheDir, key+".json")
}

// loadCache repopulates the in-memory map from CacheDir. Only names of
// the shape entryPath writes — a 64-hex-digit SpecKey + ".json" — whose
// envelope carries that same key are entries; anything else (an
// interrupted store's .tmp, an index.json left by an older daemon, a
// stray file, an envelope copied under another key's name) is not loaded
// under a bogus key.
func (s *Server) loadCache() error {
	if err := os.MkdirAll(s.cfg.CacheDir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.CacheDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		key, ok := strings.CutSuffix(name, ".json")
		if e.IsDir() || !ok || len(key) != 64 {
			continue
		}
		if _, err := hex.DecodeString(key); err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.cfg.CacheDir, name))
		if err != nil || !namesKey(b, key) {
			continue
		}
		s.cache[key] = b
	}
	return nil
}

// namesKey reports whether env begins with the head encodeEnvelope
// writes for key: {"v":N,"key":"<key>".
func namesKey(env []byte, key string) bool {
	rest, ok := bytes.CutPrefix(env, []byte(`{"v":`))
	if !ok {
		return false
	}
	rest, ok = bytes.CutPrefix(bytes.TrimLeft(rest, "0123456789"), []byte(`,"key":"`))
	return ok && len(rest) > len(key) && string(rest[:len(key)]) == key && rest[len(key)] == '"'
}
