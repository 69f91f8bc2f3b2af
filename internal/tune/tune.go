// Package tune is the online fine-tuning service behind the serving API:
// it accepts labeled failure logs over HTTP, fine-tunes the Tier-predictor
// of the currently served artifact with the existing resumable
// checkpointed trainer, validates the candidate against the incumbent on a
// deterministic held-out slice, seals the winner into the artifact store,
// hot-swaps it into the server, and then watches an A/B shadow window over
// live traffic — re-applying the incumbent policy to every diagnosis and
// comparing per-version tier agreement and policy latency — before
// promoting the candidate for good or rolling back to the incumbent.
//
// State machine (one run at a time; POST /tune while a run is active is
// rejected with 409):
//
//	idle ──POST /tune──▶ training ──validation passed──▶ shadow
//	  ▲                     │                              │
//	  │            validation failed (422)        window complete
//	  │                     │                              │
//	  └──────◀──────────────┴──────◀── promoted / rolled_back
//
// Rollback never deletes: the incumbent payload is resealed as a NEWER
// store version (the store is append-only), so the rolled-back server
// reports a higher artifact_version whose model_checksum equals the
// original incumbent's — an auditable, crash-safe undo.
package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/failurelog"
	"repro/internal/gnn"
	"repro/internal/obs"
	"repro/internal/serve"
)

// State is the manager's lifecycle phase.
type State string

const (
	StateIdle     State = "idle"
	StateTraining State = "training"
	StateShadow   State = "shadow"
)

// Run results recorded in Status.LastResult and the m3d_tune_runs_total
// result label.
const (
	ResultPromoted   = "promoted"
	ResultRolledBack = "rolled_back"
	ResultRejected   = "rejected"
	ResultFailed     = "failed"
)

// Config wires the manager to the serving stack.
type Config struct {
	// Store is the artifact store candidates are sealed into (required).
	Store *artifact.Store
	// Model is the artifact name of the served framework (required).
	Model string
	// Server is the serving instance to hot-swap and observe (required).
	// The caller must register the manager via Server.SetObserver.
	Server *serve.Server
	// Metrics receives the m3d_tune_* families. Nil disables metrics.
	Metrics *obs.Registry
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
	// CheckpointDir holds the fine-tune training checkpoint (default: the
	// store directory). An interrupted fine-tune resumes from it when the
	// next request sets "resume": true.
	CheckpointDir string
	// Workers bounds fine-tune training parallelism (0 = all cores); the
	// trained weights are identical for every worker count.
	Workers int
	// MaxBodyBytes bounds the accepted request size (default 32 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.CheckpointDir == "" && c.Store != nil {
		c.CheckpointDir = c.Store.Dir()
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// LabeledLog is one training example: a failure log in the FAILLOG text
// format plus its ground-truth tier label.
type LabeledLog struct {
	Tier int    `json:"tier"`
	Log  string `json:"log"`
}

// Request is the POST /tune body.
type Request struct {
	Samples []LabeledLog `json:"samples"`
	// Epochs of fine-tuning from the incumbent weights (default 5).
	Epochs int `json:"epochs,omitempty"`
	// LR is the fine-tune learning rate (default 0.005).
	LR float64 `json:"lr,omitempty"`
	// Holdout is the fraction of samples held out for candidate-vs-incumbent
	// validation, at least one sample (default 0.25).
	Holdout float64 `json:"holdout,omitempty"`
	// ShadowWindow is the number of live diagnoses the A/B window compares
	// before deciding promotion (default 8).
	ShadowWindow int `json:"shadow_window,omitempty"`
	// MinAgreement is the tier-agreement ratio the candidate must reach
	// against the incumbent over the shadow window (default 0.8).
	MinAgreement float64 `json:"min_agreement,omitempty"`
	// MaxLatencyRatio bounds candidate mean policy-apply latency relative to
	// the incumbent's over the shadow window (default 5.0).
	MaxLatencyRatio float64 `json:"max_latency_ratio,omitempty"`
	// Force skips the holdout validation gate (the shadow window still
	// guards promotion).
	Force bool `json:"force,omitempty"`
	// Resume continues fine-tuning from the on-disk training checkpoint of
	// an interrupted run instead of starting fresh.
	Resume bool `json:"resume,omitempty"`
	// Seed drives the holdout split and the fine-tune shuffle (default 1).
	Seed int64 `json:"seed,omitempty"`
}

func (r *Request) withDefaults() {
	if r.Epochs <= 0 {
		r.Epochs = 5
	}
	if r.LR <= 0 {
		r.LR = 0.005
	}
	if r.Holdout <= 0 || r.Holdout >= 1 {
		r.Holdout = 0.25
	}
	if r.ShadowWindow <= 0 {
		r.ShadowWindow = 8
	}
	if r.MinAgreement <= 0 {
		r.MinAgreement = 0.8
	}
	if r.MaxLatencyRatio <= 0 {
		r.MaxLatencyRatio = 5.0
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
}

// Status is the GET /tune/status body: the manager's state plus the most
// recent run's numbers. Shadow counters are live while State == "shadow".
type Status struct {
	State             State   `json:"state"`
	IncumbentVersion  int     `json:"incumbent_version,omitempty"`
	CandidateVersion  int     `json:"candidate_version,omitempty"`
	IncumbentAccuracy float64 `json:"incumbent_accuracy"`
	CandidateAccuracy float64 `json:"candidate_accuracy"`
	TrainSamples      int     `json:"train_samples,omitempty"`
	HoldoutSamples    int     `json:"holdout_samples,omitempty"`
	ShadowSeen        int     `json:"shadow_seen"`
	ShadowWindow      int     `json:"shadow_window,omitempty"`
	ShadowAgreement   float64 `json:"shadow_agreement"`
	CandidatePolicyMS float64 `json:"candidate_policy_ms"`
	IncumbentPolicyMS float64 `json:"incumbent_policy_ms"`
	LastResult        string  `json:"last_result,omitempty"`
	LastError         string  `json:"last_error,omitempty"`
	// FinalVersion is the artifact version serving after the last completed
	// run: the candidate's on promotion, the reseal's on rollback.
	FinalVersion int `json:"final_version,omitempty"`
}

// Manager runs at most one fine-tune at a time against one server.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	state  State
	status Status

	// shadow is the active A/B window; nil outside the shadow phase. The
	// observer path loads it lock-free.
	shadow atomic.Pointer[shadowWindow]
}

// NewManager builds a manager and registers its metric descriptions.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, state: StateIdle}
	m.status.State = StateIdle
	if r := cfg.Metrics; r != nil {
		r.Describe("m3d_tune_state", "Fine-tune manager state (0 idle, 1 training, 2 shadow).")
		r.Describe("m3d_tune_runs_total", "Completed fine-tune runs, by result (promoted, rolled_back, rejected, failed).")
		r.Describe("m3d_tune_holdout_accuracy", "Holdout tier accuracy of the last validated run, by role (candidate, incumbent).")
		r.Describe("m3d_tune_shadow_seen", "Diagnoses observed in the current or last A/B shadow window.")
		r.Describe("m3d_tune_shadow_agreement_ratio", "Candidate-vs-incumbent tier agreement over the shadow window.")
		r.Describe("m3d_tune_shadow_policy_seconds_avg", "Mean policy-apply wall time over the shadow window, by role and artifact version.")
		r.Gauge("m3d_tune_state").Set(0)
	}
	return m
}

func (m *Manager) setState(s State) {
	m.state = s
	m.status.State = s
	if r := m.cfg.Metrics; r != nil {
		v := 0.0
		switch s {
		case StateTraining:
			v = 1
		case StateShadow:
			v = 2
		}
		r.Gauge("m3d_tune_state").Set(v)
	}
}

// finishRun records a terminal result while holding m.mu.
func (m *Manager) finishRun(result, errMsg string, finalVersion int) {
	m.status.LastResult = result
	m.status.LastError = errMsg
	if finalVersion > 0 {
		m.status.FinalVersion = finalVersion
	}
	m.setState(StateIdle)
	if r := m.cfg.Metrics; r != nil {
		r.Counter("m3d_tune_runs_total", "result", result).Inc()
	}
}

// Handler returns the /tune + /tune/status handler to mount next to the
// serving mux.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/tune", m.handleTune)
	mux.HandleFunc("/tune/status", m.handleStatus)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// StatusSnapshot returns the current status, shadow counters included.
func (m *Manager) StatusSnapshot() Status {
	m.mu.Lock()
	st := m.status
	m.mu.Unlock()
	if sw := m.shadow.Load(); sw != nil {
		seen, agreed, candSec, incSec := sw.counters()
		st.ShadowSeen = seen
		if seen > 0 {
			st.ShadowAgreement = float64(agreed) / float64(seen)
			st.CandidatePolicyMS = candSec / float64(seen) * 1000
			st.IncumbentPolicyMS = incSec / float64(seen) * 1000
		}
	}
	return st
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, m.StatusSnapshot())
}

// checkpointPath is the fine-tune trainer's checkpoint file.
func (m *Manager) checkpointPath() string {
	return filepath.Join(m.cfg.CheckpointDir, m.cfg.Model+".tune.ckpt")
}

func (m *Manager) handleTune(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if m.cfg.Store == nil || m.cfg.Server == nil {
		writeError(w, http.StatusServiceUnavailable, "fine-tuning is not configured")
		return
	}
	var req Request
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, m.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	req.withDefaults()
	if len(req.Samples) < 2 {
		writeError(w, http.StatusBadRequest, "need at least 2 labeled samples (1 train + 1 holdout), got %d", len(req.Samples))
		return
	}
	for i, s := range req.Samples {
		if s.Tier < 0 {
			writeError(w, http.StatusBadRequest, "sample %d: negative tier label %d", i, s.Tier)
			return
		}
	}

	// Claim the single run slot.
	m.mu.Lock()
	if m.state != StateIdle {
		st := m.state
		m.mu.Unlock()
		writeError(w, http.StatusConflict, "a fine-tune run is already active (state %s)", st)
		return
	}
	m.status = Status{}
	m.setState(StateTraining)
	m.mu.Unlock()

	st, status, err := m.runTune(r.Context(), &req)
	if err != nil {
		m.mu.Lock()
		result := ResultFailed
		if status == http.StatusUnprocessableEntity {
			result = ResultRejected
		}
		m.status = st
		m.finishRun(result, err.Error(), 0)
		snap := m.status
		m.mu.Unlock()
		m.cfg.Logf("tune: %s: %v", result, err)
		writeJSON(w, status, map[string]any{"error": err.Error(), "status": snap})
		return
	}
	m.mu.Lock()
	m.status = st
	m.setState(StateShadow)
	snap := m.status
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": snap})
}

// runTune executes the training + validation + hot-swap phases and arms
// the shadow window. On error it returns the HTTP status to report and a
// partially filled Status for the record.
func (m *Manager) runTune(ctx context.Context, req *Request) (Status, int, error) {
	st := Status{State: StateTraining, ShadowWindow: req.ShadowWindow}

	// The incumbent is whatever the store currently serves — the same bytes
	// the server loaded. Two independent decodes give the fine-tune its own
	// mutable candidate while the incumbent stays pristine for validation
	// and rollback.
	payload, _, incVersion, err := m.cfg.Store.LoadLatest(m.cfg.Model)
	if err != nil {
		return st, http.StatusInternalServerError, fmt.Errorf("load incumbent: %w", err)
	}
	st.IncumbentVersion = incVersion
	incumbent, err := core.Load(bytes.NewReader(payload))
	if err != nil {
		return st, http.StatusInternalServerError, fmt.Errorf("decode incumbent: %w", err)
	}
	candidate, err := core.Load(bytes.NewReader(payload))
	if err != nil {
		return st, http.StatusInternalServerError, fmt.Errorf("decode candidate: %w", err)
	}

	samples, err := m.buildSamples(ctx, req.Samples)
	if err != nil {
		return st, http.StatusBadRequest, err
	}

	// Deterministic holdout split: the seed fixes the permutation, so the
	// same request body always trains and validates on the same slices.
	rng := rand.New(rand.NewSource(req.Seed))
	perm := rng.Perm(len(samples))
	holdN := int(req.Holdout * float64(len(samples)))
	if holdN < 1 {
		holdN = 1
	}
	if holdN >= len(samples) {
		holdN = len(samples) - 1
	}
	holdout := make([]gnn.GraphSample, 0, holdN)
	train := make([]gnn.GraphSample, 0, len(samples)-holdN)
	for i, si := range perm {
		if i < holdN {
			holdout = append(holdout, samples[si])
		} else {
			train = append(train, samples[si])
		}
	}
	st.TrainSamples, st.HoldoutSamples = len(train), len(holdout)

	// Fine-tune the candidate's Tier-predictor from the incumbent weights
	// with the resumable checkpointed trainer. The feature scaler is frozen
	// (FitScaler=false): fine-tuning must see inputs on the incumbent's
	// training scale. T_P is retained from the incumbent.
	ckpt := m.checkpointPath()
	if !req.Resume {
		os.Remove(ckpt)
	}
	m.cfg.Logf("tune: fine-tuning %s v%d on %d samples (%d held out), %d epochs lr=%g",
		m.cfg.Model, incVersion, len(train), len(holdout), req.Epochs, req.LR)
	if _, err := candidate.Tier.Train(train, gnn.TrainConfig{
		Epochs: req.Epochs, LR: req.LR, Seed: req.Seed + 1, FitScaler: false,
		Workers: m.cfg.Workers, Checkpoint: gnn.CheckpointConfig{Path: ckpt},
		Obs: m.cfg.Metrics, ObsModel: "tune",
	}); err != nil {
		return st, http.StatusInternalServerError, fmt.Errorf("fine-tune: %w", err)
	}

	// Validation gate: the candidate must not lose to the incumbent on the
	// held-out slice. Force skips the gate but never the shadow window.
	st.CandidateAccuracy = candidate.Tier.Accuracy(holdout)
	st.IncumbentAccuracy = incumbent.Tier.Accuracy(holdout)
	if r := m.cfg.Metrics; r != nil {
		r.Gauge("m3d_tune_holdout_accuracy", "role", "candidate").Set(st.CandidateAccuracy)
		r.Gauge("m3d_tune_holdout_accuracy", "role", "incumbent").Set(st.IncumbentAccuracy)
	}
	if st.CandidateAccuracy < st.IncumbentAccuracy && !req.Force {
		os.Remove(ckpt)
		return st, http.StatusUnprocessableEntity,
			fmt.Errorf("candidate holdout accuracy %.3f below incumbent %.3f; not deploying (force=true overrides)",
				st.CandidateAccuracy, st.IncumbentAccuracy)
	}

	// Seal the candidate as the next store version and hot-swap it in via
	// the server's validating reload path.
	_, candVersion, err := m.cfg.Store.Save(m.cfg.Model, func(w io.Writer) error {
		return candidate.Save(w)
	})
	if err != nil {
		return st, http.StatusInternalServerError, fmt.Errorf("seal candidate: %w", err)
	}
	st.CandidateVersion = candVersion
	if _, err := m.cfg.Server.Reload(); err != nil {
		return st, http.StatusInternalServerError, fmt.Errorf("hot-swap candidate v%d: %w", candVersion, err)
	}
	os.Remove(ckpt) // the run completed; the checkpoint has served its purpose

	sw := &shadowWindow{
		m:                m,
		incumbent:        incumbent,
		incumbentPayload: payload,
		incumbentVersion: incVersion,
		candidateVersion: candVersion,
		window:           req.ShadowWindow,
		minAgreement:     req.MinAgreement,
		maxLatencyRatio:  req.MaxLatencyRatio,
	}
	m.shadow.Store(sw)
	m.cfg.Logf("tune: candidate v%d live (incumbent v%d held for rollback); shadow window of %d diagnoses open",
		candVersion, incVersion, req.ShadowWindow)
	st.State = StateShadow
	return st, http.StatusOK, nil
}

// buildSamples turns labeled failure logs into graph samples by running
// the ATPG diagnosis + back-trace front end. Every diagnosis runs on a
// pooled fork of the bundle's engine, so tuning never races live traffic
// on fault-simulation scratch.
func (m *Manager) buildSamples(ctx context.Context, in []LabeledLog) ([]gnn.GraphSample, error) {
	b := m.cfg.Server.Bundle()
	if b == nil {
		return nil, errors.New("server has no bundle")
	}
	out := make([]gnn.GraphSample, 0, len(in))
	for i, s := range in {
		log, err := failurelog.Read(strings.NewReader(s.Log))
		if err != nil {
			return nil, fmt.Errorf("sample %d: parse failure log: %w", i, err)
		}
		if _, err := b.Diag.DiagnoseCtx(ctx, log); err != nil {
			return nil, fmt.Errorf("sample %d: diagnose: %w", i, err)
		}
		sg, err := b.Graph.BacktraceCtx(ctx, log, b.Diag.Result())
		if err != nil {
			return nil, fmt.Errorf("sample %d: backtrace: %w", i, err)
		}
		if sg.NumNodes() == 0 {
			return nil, fmt.Errorf("sample %d: empty back-traced subgraph (log matches no failing paths)", i)
		}
		out = append(out, gnn.GraphSample{SG: sg, Label: s.Tier})
	}
	return out, nil
}

// ObserveDiagnosis feeds the active shadow window; a no-op outside the
// shadow phase. Implements serve.Observer.
func (m *Manager) ObserveDiagnosis(o serve.DiagnoseObservation) {
	if sw := m.shadow.Load(); sw != nil {
		sw.observe(o)
	}
}

// shadowWindow is one A/B comparison over live traffic: for every observed
// diagnosis it re-applies both the candidate (served) and the held
// incumbent policy to the same report and subgraph, accumulating tier
// agreement and per-version policy latency until the window fills.
type shadowWindow struct {
	m                *Manager
	incumbent        *core.Framework
	incumbentPayload []byte
	incumbentVersion int
	candidateVersion int
	window           int
	minAgreement     float64
	maxLatencyRatio  float64

	mu      sync.Mutex
	seen    int
	agreed  int
	candSec float64
	incSec  float64
	done    bool
}

func (sw *shadowWindow) counters() (seen, agreed int, candSec, incSec float64) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.seen, sw.agreed, sw.candSec, sw.incSec
}

func (sw *shadowWindow) observe(o serve.DiagnoseObservation) {
	b := sw.m.cfg.Server.Bundle()
	cand := sw.m.cfg.Server.Framework()
	if b == nil || cand == nil || o.SG == nil || o.Report == nil {
		return
	}
	// Re-apply BOTH policies under identical conditions (same report, same
	// subgraph, back to back on this goroutine) so the latency comparison
	// is apples to apples; policy application never mutates its inputs.
	ctx := context.Background()
	t0 := time.Now()
	candOut := cand.PolicyFor(b).ApplyCtx(ctx, o.Report, o.SG)
	candSec := time.Since(t0).Seconds()
	t1 := time.Now()
	incOut := sw.incumbent.PolicyFor(b).ApplyCtx(ctx, o.Report, o.SG)
	incSec := time.Since(t1).Seconds()

	sw.mu.Lock()
	if sw.done {
		sw.mu.Unlock()
		return
	}
	sw.seen++
	if candOut.PredictedTier == incOut.PredictedTier {
		sw.agreed++
	}
	sw.candSec += candSec
	sw.incSec += incSec
	seen, agreed := sw.seen, sw.agreed
	candTot, incTot := sw.candSec, sw.incSec
	full := seen >= sw.window
	if full {
		sw.done = true
	}
	sw.mu.Unlock()

	if r := sw.m.cfg.Metrics; r != nil {
		r.Gauge("m3d_tune_shadow_seen").Set(float64(seen))
		r.Gauge("m3d_tune_shadow_agreement_ratio").Set(float64(agreed) / float64(seen))
		cv, iv := strconv.Itoa(sw.candidateVersion), strconv.Itoa(sw.incumbentVersion)
		r.Gauge("m3d_tune_shadow_policy_seconds_avg", "role", "candidate", "version", cv).Set(candTot / float64(seen))
		r.Gauge("m3d_tune_shadow_policy_seconds_avg", "role", "incumbent", "version", iv).Set(incTot / float64(seen))
	}
	if full {
		sw.m.decide(sw, agreed, seen, candTot, incTot)
	}
}

// decide closes the shadow window: promote the candidate, or roll back by
// resealing the incumbent payload as a newer version and reloading it.
func (sw *shadowWindow) promoteOK(agreed, seen int, candTot, incTot float64) (bool, string) {
	agreement := float64(agreed) / float64(seen)
	if agreement < sw.minAgreement {
		return false, fmt.Sprintf("tier agreement %.3f below required %.3f", agreement, sw.minAgreement)
	}
	if incTot > 0 && candTot > sw.maxLatencyRatio*incTot {
		return false, fmt.Sprintf("candidate policy latency %.3fms exceeds %.1fx incumbent %.3fms",
			candTot/float64(seen)*1000, sw.maxLatencyRatio, incTot/float64(seen)*1000)
	}
	return true, ""
}

func (m *Manager) decide(sw *shadowWindow, agreed, seen int, candTot, incTot float64) {
	ok, reason := sw.promoteOK(agreed, seen, candTot, incTot)
	m.shadow.Store(nil)
	agreement := float64(agreed) / float64(seen)

	if ok {
		m.mu.Lock()
		m.status.ShadowSeen = seen
		m.status.ShadowAgreement = agreement
		m.status.CandidatePolicyMS = candTot / float64(seen) * 1000
		m.status.IncumbentPolicyMS = incTot / float64(seen) * 1000
		m.finishRun(ResultPromoted, "", sw.candidateVersion)
		m.mu.Unlock()
		m.cfg.Logf("tune: promoted candidate v%d (agreement %.3f over %d diagnoses)",
			sw.candidateVersion, agreement, seen)
		return
	}

	// Rollback: reseal the incumbent bytes as the next version (append-only
	// store — never delete a version) and reload. The resealed payload is
	// byte-identical to the original incumbent, so /healthz reports the old
	// model_checksum under a new artifact_version.
	_, rbVersion, err := m.cfg.Store.Save(m.cfg.Model, func(w io.Writer) error {
		_, werr := w.Write(sw.incumbentPayload)
		return werr
	})
	if err == nil {
		_, err = m.cfg.Server.Reload()
	}
	m.mu.Lock()
	m.status.ShadowSeen = seen
	m.status.ShadowAgreement = agreement
	m.status.CandidatePolicyMS = candTot / float64(seen) * 1000
	m.status.IncumbentPolicyMS = incTot / float64(seen) * 1000
	if err != nil {
		m.finishRun(ResultFailed, fmt.Sprintf("rollback of v%d: %v", sw.candidateVersion, err), 0)
		m.mu.Unlock()
		m.cfg.Logf("tune: ROLLBACK FAILED for candidate v%d: %v", sw.candidateVersion, err)
		return
	}
	m.finishRun(ResultRolledBack, reason, rbVersion)
	m.mu.Unlock()
	m.cfg.Logf("tune: rolled back candidate v%d to incumbent v%d (resealed as v%d): %s",
		sw.candidateVersion, sw.incumbentVersion, rbVersion, reason)
}
