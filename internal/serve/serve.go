// Package serve implements the powersimd HTTP service: scenario Specs
// come in as canonical JSON, run under a guard.Supervisor, and leave as
// Result envelopes addressed by their content key. Identical submissions
// never recompute — the (canonical spec, seed, parts) hash is the cache
// key, and simulation determinism guarantees the cached envelope is
// byte-identical to a fresh run.
//
// The package deliberately lives OUTSIDE the simulation-path
// determinism contract (see internal/analysis): admission control,
// Retry-After hints, and request timeouts are wall-clock concerns, and
// this is the only layer (with cmd/powersimd) allowed to have them.
// Nothing here schedules onto a sim engine; budgets are enforced inside
// guard at deterministic sim-time checkpoints.
package serve

import (
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
	sp, parts, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	_, env, hit, err := s.resolve(sp, parts)
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
		sp, err := scenario.DecodeSpec(raw)
		if err != nil {
			out[i].Error = &errorBody{Error: err.Error(), Kind: "decode"}
			continue
		}
		wg.Add(1)
		go func(i int, sp *scenario.Spec) {
			defer wg.Done()
			key, env, _, err := s.resolve(sp, parts)
			if err != nil {
				out[i].Error = runErrorBody(err)
				return
			}
			out[i] = slot{Key: key, Result: env}
		}(i, sp)
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

// decodeRequest parses the parts parameter and strict Spec body,
// answering the request itself on failure.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*scenario.Spec, int, bool) {
	parts, ok := partsParam(w, r)
	if !ok {
		return nil, 0, false
	}
	body, ok := readBody(w, r)
	if !ok {
		return nil, 0, false
	}
	sp, err := scenario.DecodeSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error(), "decode")
		return nil, 0, false
	}
	return sp, parts, true
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
	if errors.As(err, new(*http.MaxBytesError)) {
		httpError(w, http.StatusRequestEntityTooLarge, err.Error(), "too_large")
	} else if err != nil {
		httpError(w, http.StatusBadRequest, err.Error(), "read")
	}
	return body, err == nil
}

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

// resolve answers one (spec, parts) submission with its content key and
// envelope: cache first, then a supervised run behind admission control.
// The returned envelope bytes for a given key are identical forever —
// cold runs store exactly what later hits return.
func (s *Server) resolve(sp *scenario.Spec, parts int) (key string, env []byte, hit bool, err error) {
	key, err = scenario.SpecKey(sp, sp.Seed, parts)
	if err != nil {
		return "", nil, false, &requestError{status: http.StatusBadRequest, kind: "decode", msg: err.Error()}
	}
	if env := s.lookup(key); env != nil {
		s.cacheHits.Add(1)
		return key, env, true, nil
	}
	if err := s.acquire(); err != nil {
		return "", nil, false, err
	}
	defer s.release()

	// Double-check after the possible queue wait: an identical
	// submission may have landed the entry meanwhile.
	if env := s.lookup(key); env != nil {
		s.cacheHits.Add(1)
		return key, env, true, nil
	}
	s.runs.Add(1)
	res, err := s.run(sp, parts)
	if err == nil {
		env, err = encodeEnvelope(key, sp.Seed, parts, res)
	}
	if err != nil {
		s.failures.Add(1)
		return "", nil, false, err
	}
	s.store(key, env)
	return key, env, false, nil
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
// into memory).
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
	if err != nil {
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
// the shape entryPath writes — a 64-hex-digit SpecKey + ".json" — are
// entries; anything else (an interrupted store's .tmp, an index.json
// left by an older daemon, a stray file) is not loaded under a bogus key.
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
		if err != nil {
			continue
		}
		s.cache[key] = b
	}
	return nil
}
