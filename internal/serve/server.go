// Package serve packages the diagnosis framework as a long-running
// HTTP/JSON inference service with the robustness semantics a production
// volume-diagnosis front end needs:
//
//   - Bounded admission: at most MaxConcurrent diagnoses run at once and
//     at most MaxQueue requests wait; beyond that the server sheds load
//     with 429 + Retry-After instead of queueing unboundedly.
//   - Deadlines: every request carries a context deadline (server default,
//     client-overridable, capped), threaded through candidate scoring and
//     back-tracing, so a slow diagnosis stops burning CPU the moment its
//     deadline expires.
//   - Panic isolation: a crashing request becomes a 500; the process and
//     every other in-flight request keep going.
//   - Graceful shutdown: StartDrain flips /readyz to 503 and sheds new
//     diagnoses while in-flight requests run to completion within the
//     drain deadline.
//   - Hot reload: the served framework lives behind an atomic pointer and
//     is swapped only after a candidate loaded from the artifact store
//     passes full validation, so a corrupt artifact can never replace a
//     working model.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/hgraph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/policy"
	"repro/internal/version"
)

// Config tunes the server's robustness envelope. The zero value gets
// sensible production defaults from withDefaults.
type Config struct {
	// MaxConcurrent bounds simultaneously executing diagnoses
	// (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// the server sheds with 429 (default 64).
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the client does not
	// send one (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 2m).
	MaxTimeout time.Duration
	// RetryAfter is the hint returned with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds the accepted failure-log size (default 8 MiB).
	MaxBodyBytes int64
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
	// AccessLogf receives one structured line per request (request ID,
	// route, status, queue wait, handle time). Nil disables access logging.
	AccessLogf func(format string, args ...any)
	// Metrics receives server metrics and enables GET /metrics. Nil
	// disables metrics entirely (no-op, allocation-free hot path).
	Metrics *obs.Registry
	// Tracer records one trace per request (spans across admission,
	// parsing, diagnosis stages) and enables GET /debug/traces. Nil
	// disables tracing.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// CandidateJSON is one ranked suspect in a diagnosis response.
type CandidateJSON struct {
	Fault string  `json:"fault"`
	Gate  int     `json:"gate"`
	Pin   int     `json:"pin"`
	Pol   int     `json:"pol"`
	TFSF  int     `json:"tfsf"`
	TFSP  int     `json:"tfsp"`
	TPSF  int     `json:"tpsf"`
	Score float64 `json:"score"`
}

// DiagnoseResponse is the JSON body of a successful diagnosis.
type DiagnoseResponse struct {
	Design         string          `json:"design"`
	Compacted      bool            `json:"compacted"`
	PredictedTier  int             `json:"predicted_tier"`
	Confidence     float64         `json:"confidence"`
	Pruned         bool            `json:"pruned"`
	FaultyMIVs     []int           `json:"faulty_mivs,omitempty"`
	ATPGResolution int             `json:"atpg_resolution"`
	Candidates     []CandidateJSON `json:"candidates"`
	ElapsedMS      float64         `json:"elapsed_ms"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ArtifactInfo identifies the exact model a server is running: the artifact
// store version and the CRC64 checksum of the model payload. Fleet failover
// and A/B debugging use it to tell shards apart at a glance.
type ArtifactInfo struct {
	// Model is the artifact name the framework was loaded from.
	Model string `json:"model,omitempty"`
	// Version is the artifact store version number (0 = not store-loaded).
	Version int `json:"artifact_version,omitempty"`
	// Checksum is the hex CRC64-ECMA of the model payload.
	Checksum string `json:"model_checksum,omitempty"`
}

// HealthzResponse is the JSON body of GET /healthz: liveness plus the
// identity of the serving process — which design it serves, which build it
// runs, and exactly which model bytes it loaded.
type HealthzResponse struct {
	Status string `json:"status"`
	Design string `json:"design"`
	Build  string `json:"build"`
	ArtifactInfo
}

// DiagnoseObservation is one completed single-fault diagnosis as seen by
// a registered Observer: the parsed failure log, the ATPG report, the
// back-traced subgraph the policy ran on, the policy outcome produced by
// the currently served framework, and the end-to-end diagnosis wall time.
// Report and SG are shared with the response path — observers must treat
// them as read-only.
type DiagnoseObservation struct {
	Log     *failurelog.Log
	Report  *diagnosis.Report
	SG      *hgraph.Subgraph
	Outcome *policy.Outcome
	Elapsed time.Duration
}

// Observer receives every successful single-fault diagnosis, synchronously
// on the request goroutine before the response is written — so by the time
// a client sees its response, the observation has been recorded. The
// online fine-tuning service's A/B shadow window is the intended consumer;
// observers must be fast and must not block.
type Observer interface {
	ObserveDiagnosis(DiagnoseObservation)
}

// Server serves diagnosis requests for one loaded design bundle.
type Server struct {
	cfg    Config
	bundle *dataset.Bundle
	fw     atomic.Pointer[core.Framework]

	// observer, when set, sees every successful single-fault diagnosis
	// (shadow A/B evaluation during fine-tuning).
	observer atomic.Pointer[Observer]

	store *artifact.Store
	model string
	// art identifies the loaded model (version + payload checksum) for
	// /healthz; nil until SetArtifactInfo or a store load records it.
	art atomic.Pointer[ArtifactInfo]

	sem      chan struct{}
	queued   atomic.Int64
	draining atomic.Bool

	// Inflight counts admitted requests currently executing; exposed for
	// drain diagnostics.
	inflight atomic.Int64

	// Request-ID generation: a per-process boot stamp plus a sequence
	// number, so IDs are unique across restarts without coordination.
	boot   uint32
	reqSeq atomic.Uint64

	mux http.Handler
}

// reqInfo is the per-request record shared between the access-log
// middleware and the handlers (which fill in the queue wait).
type reqInfo struct {
	id        string
	queueWait time.Duration
}

type reqInfoKey struct{}

// RequestIDHeader carries the request ID on every response; clients echo
// it back in error messages so one ID links a client-side failure to the
// server's access log line.
const RequestIDHeader = "X-Request-ID"

// New builds a server for one bundle. fw may be nil (the server reports
// not-ready until a framework is loaded via SetFramework or Reload).
func New(b *dataset.Bundle, fw *core.Framework, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		bundle: b,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		boot:   uint32(time.Now().UnixNano()),
	}
	if fw != nil {
		s.fw.Store(fw)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/diagnose", s.handleDiagnose)
	mux.HandleFunc("/reload", s.handleReload)
	if cfg.Metrics != nil {
		cfg.Metrics.Describe("m3d_http_requests_total", "Requests served, by route and status code.")
		cfg.Metrics.Describe("m3d_queue_wait_seconds", "Admission queue wait per diagnosis request.")
		cfg.Metrics.Describe("m3d_http_request_seconds", "Wall time per request, by route.")
		cfg.Metrics.Describe("m3d_shed_total", "Requests shed without executing, by reason.")
		cfg.Metrics.Describe(policy.ForwardHistogram, "GNN forward-pass wall time per request, by model (miv/tier/cls).")
		mux.Handle("/metrics", cfg.Metrics)
	}
	if cfg.Tracer != nil {
		mux.Handle("/debug/traces", cfg.Tracer)
	}
	s.mux = s.accessMiddleware(s.recoverMiddleware(mux))
	return s
}

// knownRoutes clamps the route metric label to the server's fixed route
// set so arbitrary request paths cannot explode label cardinality.
var knownRoutes = map[string]bool{
	"/healthz": true, "/readyz": true, "/diagnose": true,
	"/reload": true, "/metrics": true, "/debug/traces": true,
}

func routeLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	return "other"
}

// statusRecorder captures the status code written by downstream handlers.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// requestID returns the client-provided X-Request-ID (clamped) or mints a
// fresh one.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); id != "" {
		if len(id) > 64 {
			id = id[:64]
		}
		return id
	}
	return fmt.Sprintf("%08x-%06d", s.boot, s.reqSeq.Add(1))
}

// accessMiddleware assigns every request an ID (echoed in the response
// header), opens a per-request trace, records request metrics, and emits
// one structured access-log line: everything an operator needs to follow
// one request through the system.
func (s *Server) accessMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := routeLabel(r.URL.Path)
		ri := &reqInfo{id: s.requestID(r)}
		w.Header().Set(RequestIDHeader, ri.id)
		ctx := context.WithValue(r.Context(), reqInfoKey{}, ri)
		ctx, trace := s.cfg.Tracer.StartTrace(ctx, r.Method+" "+route)
		if s.cfg.Metrics != nil {
			ctx = obs.WithRegistry(ctx, s.cfg.Metrics)
		}
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r.WithContext(ctx))
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		trace.End()
		if m := s.cfg.Metrics; m != nil {
			m.Counter("m3d_http_requests_total", "route", route, "code", strconv.Itoa(rec.status)).Inc()
			m.Histogram("m3d_http_request_seconds", obs.DurationBuckets, "route", route).Observe(elapsed.Seconds())
		}
		if al := s.cfg.AccessLogf; al != nil {
			al("request id=%s method=%s route=%s status=%d queue_wait_ms=%.3f handle_ms=%.3f",
				ri.id, r.Method, route, rec.status,
				float64(ri.queueWait.Microseconds())/1000,
				float64(elapsed.Microseconds())/1000)
		}
	})
}

// EnableReload points hot reload at an artifact-store name; Reload (and
// POST /reload, and SIGHUP in cmd/m3dserve) will load the newest valid
// version of that artifact.
func (s *Server) EnableReload(store *artifact.Store, model string) {
	s.store = store
	s.model = model
}

// SetArtifactInfo records the identity of the loaded model for /healthz.
// Reload calls it automatically; servers that load outside the store (or
// train in place) should call it once after SetFramework.
func (s *Server) SetArtifactInfo(info ArtifactInfo) { s.art.Store(&info) }

// ArtifactInfo returns the recorded model identity (zero value before any
// SetArtifactInfo/Reload).
func (s *Server) ArtifactInfo() ArtifactInfo {
	if p := s.art.Load(); p != nil {
		return *p
	}
	return ArtifactInfo{}
}

// SetObserver registers (or, with nil, removes) the diagnosis observer.
// Safe to call while serving.
func (s *Server) SetObserver(ob Observer) {
	if ob == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&ob)
}

// Bundle returns the design bundle the server serves.
func (s *Server) Bundle() *dataset.Bundle { return s.bundle }

// Handler returns the server's HTTP handler (panic isolation included).
func (s *Server) Handler() http.Handler { return s.mux }

// Framework returns the currently served framework (nil before load).
func (s *Server) Framework() *core.Framework { return s.fw.Load() }

// SetFramework atomically swaps the served framework.
func (s *Server) SetFramework(fw *core.Framework) { s.fw.Store(fw) }

// StartDrain begins graceful shutdown: /readyz flips to 503 so load
// balancers stop routing here, and new diagnosis requests are shed while
// in-flight ones run to completion. Safe to call more than once.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight returns the number of admitted diagnoses currently executing.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Reload loads the newest valid framework version from the artifact store
// and swaps it in — but only after core.Load's full validation (shape and
// chaining checks included) passes, so the running model is never replaced
// by a corrupt or incompatible artifact. Corrupt store versions are
// quarantined by the store and older versions tried automatically.
func (s *Server) Reload() (version int, err error) {
	if s.store == nil {
		return 0, errors.New("serve: reload: no artifact store configured")
	}
	payload, path, version, err := s.store.LoadLatest(s.model)
	if err != nil {
		return 0, fmt.Errorf("serve: reload: %w", err)
	}
	fw, err := core.Load(bytes.NewReader(payload))
	if err != nil {
		return 0, fmt.Errorf("serve: reload: validate %s: %w", path, err)
	}
	s.fw.Store(fw)
	s.SetArtifactInfo(ArtifactInfo{Model: s.model, Version: version, Checksum: artifact.ChecksumHex(payload)})
	s.cfg.Logf("serve: reloaded framework %s v%d (T_P=%.3f)", s.model, version, fw.TP)
	return version, nil
}

// recoverMiddleware converts a panicking request into a 500 response
// without killing the process or any other in-flight request.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.cfg.Logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if wp, ok := p.(*par.WorkerPanic); ok {
					p = wp.Value // the worker's stack goes to the log, not the client
				}
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{
		Status:       "ok",
		Build:        version.String(),
		ArtifactInfo: s.ArtifactInfo(),
	}
	if s.bundle != nil {
		resp.Design = s.bundle.Name
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.retryAfterHeader(w)
		writeError(w, http.StatusServiceUnavailable, "draining")
	case s.fw.Load() == nil:
		s.retryAfterHeader(w)
		writeError(w, http.StatusServiceUnavailable, "no framework loaded")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	v, err := s.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "reloaded", "version": v})
}

// shedReason maps a non-admission status to the m3d_shed_total reason
// label.
func shedReason(status int) string {
	switch status {
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusGatewayTimeout:
		return "deadline_in_queue"
	case http.StatusServiceUnavailable:
		return "cancelled_in_queue"
	}
	return "other"
}

// admit implements bounded admission: it acquires an execution slot,
// waiting in the bounded queue if necessary. It returns a release func on
// success, or an HTTP status describing why the request was not admitted.
func (s *Server) admit(ctx context.Context) (release func(), status int, msg string) {
	// Fast path: free slot, no queueing.
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, ""
	default:
	}
	// Queue, bounded: the (MaxQueue+1)-th waiter is shed immediately —
	// explicit load-shedding beats unbounded latency under overload.
	q := s.queued.Add(1)
	s.cfg.Metrics.Gauge("m3d_queue_depth").Set(float64(q))
	if q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, http.StatusTooManyRequests,
			fmt.Sprintf("admission queue full (%d executing, %d queued)", s.cfg.MaxConcurrent, s.cfg.MaxQueue)
	}
	defer func() {
		s.cfg.Metrics.Gauge("m3d_queue_depth").Set(float64(s.queued.Add(-1)))
	}()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, ""
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, http.StatusGatewayTimeout, "deadline expired while queued"
		}
		return nil, http.StatusServiceUnavailable, "request cancelled while queued"
	}
}

// requestTimeout resolves the effective deadline for one request from the
// timeout_ms query parameter, clamped to (0, MaxTimeout].
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("bad timeout_ms %q", raw)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		s.retryAfterHeader(w)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	fw := s.fw.Load()
	if fw == nil {
		s.retryAfterHeader(w)
		writeError(w, http.StatusServiceUnavailable, "no framework loaded")
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The admission wait shares the request deadline: a request must not
	// queue longer than it is willing to run.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	queueStart := time.Now()
	qspan := obs.Start(ctx, "serve.queue")
	release, status, msg := s.admit(ctx)
	qspan.End()
	queueWait := time.Since(queueStart)
	if ri, ok := ctx.Value(reqInfoKey{}).(*reqInfo); ok {
		ri.queueWait = queueWait
	}
	if m := s.cfg.Metrics; m != nil {
		m.Histogram("m3d_queue_wait_seconds", obs.DurationBuckets).Observe(queueWait.Seconds())
	}
	if release == nil {
		if m := s.cfg.Metrics; m != nil {
			m.Counter("m3d_shed_total", "reason", shedReason(status)).Inc()
		}
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			s.retryAfterHeader(w)
		}
		writeError(w, status, msg)
		return
	}
	defer release()
	s.inflight.Add(1)
	s.cfg.Metrics.Gauge("m3d_inflight").Set(float64(s.inflight.Load()))
	defer func() {
		s.inflight.Add(-1)
		s.cfg.Metrics.Gauge("m3d_inflight").Set(float64(s.inflight.Load()))
	}()

	pspan := obs.Start(ctx, "serve.parse")
	log, err := failurelog.Read(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	pspan.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parse failure log: %v", err))
		return
	}

	start := time.Now()
	var rep *diagnosis.Report
	var sg *hgraph.Subgraph
	var out *policy.Outcome
	if r.URL.Query().Get("multi") == "1" || r.URL.Query().Get("multi") == "true" {
		rep, out, err = fw.DiagnoseMultiCtx(ctx, s.bundle, log)
	} else {
		rep, sg, out, err = fw.DiagnoseFullCtx(ctx, s.bundle, log)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("deadline exceeded after %v: %v", time.Since(start).Round(time.Millisecond), err))
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, "request cancelled")
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}

	// The observer sees the diagnosis before the response is written:
	// clients polling shadow progress after their own requests observe a
	// consistent count. Multi-fault diagnoses carry no subgraph and are not
	// observed.
	if p := s.observer.Load(); p != nil && sg != nil {
		(*p).ObserveDiagnosis(DiagnoseObservation{
			Log: log, Report: rep, SG: sg, Outcome: out, Elapsed: time.Since(start),
		})
	}

	resp := DiagnoseResponse{
		Design:         rep.Design,
		Compacted:      rep.Compacted,
		PredictedTier:  out.PredictedTier,
		Confidence:     out.Confidence,
		Pruned:         out.Pruned,
		FaultyMIVs:     out.FaultyMIVs,
		ATPGResolution: rep.Resolution(),
		Candidates:     make([]CandidateJSON, 0, len(out.Report.Candidates)),
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, c := range out.Report.Candidates {
		resp.Candidates = append(resp.Candidates, CandidateJSON{
			Fault: c.Fault.String(),
			Gate:  c.Fault.Gate,
			Pin:   c.Fault.Pin,
			Pol:   int(c.Fault.Pol),
			TFSF:  c.TFSF,
			TFSP:  c.TFSP,
			TPSF:  c.TPSF,
			Score: c.Score,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
