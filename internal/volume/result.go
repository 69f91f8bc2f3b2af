package volume

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/serve"
)

// Result statuses.
const (
	StatusOK          = "ok"
	StatusQuarantined = "quarantined"
)

// Quarantine reason categories. A quarantined log never fails the
// campaign; it is counted, recorded, and skipped on resume.
const (
	ReasonRead     = "read"     // unreadable, oversized, or unparsable log file
	ReasonDiagnose = "diagnose" // the diagnosis backend returned an error
	ReasonDeadline = "deadline" // the per-log deadline expired
	ReasonPanic    = "panic"    // the diagnosis panicked (isolated per log)
)

// Candidate is one ranked suspect in a sealed per-log result, with the
// fault site resolved against the netlist so aggregation needs no further
// design data.
type Candidate struct {
	// Gate is the value-carrying site gate of the suspect fault.
	Gate int `json:"gate"`
	// Cell is the site gate's instance name (the aggregation key for
	// per-cell histograms and the systematic-defect detector).
	Cell string `json:"cell"`
	// Tier is the site's effective tier (MIV pseudo-buffers inherit their
	// driver's tier).
	Tier int `json:"tier"`
	// MIV marks suspects sitting on an inter-tier via.
	MIV bool `json:"miv,omitempty"`
	// Pol is the fault polarity (slow-to-rise/fall).
	Pol int `json:"pol"`
	// Score is the diagnosis ranking value.
	Score float64 `json:"score"`
}

// Result is the durable outcome of diagnosing one failure log. Results are
// sealed through the artifact layer as they complete, so a campaign killed
// at any instant loses at most the logs whose diagnoses were in flight.
type Result struct {
	// Log is the base name of the input file (the dedup/resume key).
	Log    string `json:"log"`
	Status string `json:"status"`
	// Reason categorizes a quarantined result; Err carries the message.
	Reason string `json:"reason,omitempty"`
	Err    string `json:"err,omitempty"`
	// Fails is the failing-bit count of the ingested log.
	Fails int `json:"fails,omitempty"`

	PredictedTier int     `json:"predicted_tier"`
	Confidence    float64 `json:"confidence"`
	Pruned        bool    `json:"pruned,omitempty"`
	FaultyMIVs    []int   `json:"faulty_mivs,omitempty"`
	// Candidates is the post-policy ranked suspect list, capped at the
	// campaign's TopK.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// sealResult writes one result as a sealed artifact (atomic + checksummed):
// a crash mid-write leaves nothing, a flipped bit on disk is detected on
// resume and the log is simply re-diagnosed.
func sealResult(path string, r *Result) error {
	return artifact.WriteSealed(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(r)
	})
}

// loadResult reads a sealed result back, verifying its checksum and that
// it belongs to the expected log. Any failure returns nil: the caller
// re-diagnoses, which is always safe.
func loadResult(path, wantLog string) *Result {
	payload, err := artifact.ReadSealed(path)
	if err != nil {
		return nil
	}
	var r Result
	if json.Unmarshal(payload, &r) != nil || r.Log != wantLog {
		return nil
	}
	return &r
}

// Results loads the sealed per-log results of a campaign directory, one
// slot per input (nil where no valid sealed result exists). Consumers that
// need per-die detail beyond the aggregated report — the experiment
// suite's ground-truth replay, post-hoc tooling — read the same sealed
// files the resume path trusts.
func Results(dir string, inputs []string) []*Result {
	out := make([]*Result, len(inputs))
	for i, p := range inputs {
		base := filepath.Base(p)
		out[i] = loadResult(resultPath(dir, base), base)
	}
	return out
}

// rawOutcome is the backend-neutral diagnosis outcome a Diagnoser
// produces; the engine resolves fault sites against the netlist afterward.
type rawOutcome struct {
	PredictedTier int
	Confidence    float64
	Pruned        bool
	FaultyMIVs    []int
	Cands         []rawCand
}

// rawCand pairs the suspected fault with its ranking score.
type rawCand struct {
	Fault faultsim.Fault
	Score float64
}

// Diagnoser turns one failure log into a diagnosis outcome. A campaign
// engine is handed one Diagnoser per worker (see Config.Diagnosers); a
// single instance is only ever called from one worker at a time, so
// implementations need not be internally synchronized — but distinct
// instances run concurrently and must not share mutable state.
type Diagnoser interface {
	Diagnose(ctx context.Context, log *failurelog.Log) (*rawOutcome, error)
}

// LocalDiagnoser runs diagnoses in-process through core.DiagnoseCtx.
// GNN forward passes share scratch buffers, so one LocalDiagnoser must
// never be called concurrently; build one per worker with
// NewLocalDiagnosers.
type LocalDiagnoser struct {
	FW     *core.Framework
	Bundle *dataset.Bundle
	// Multi selects the multi-fault diagnosis path.
	Multi bool
}

// Diagnose implements Diagnoser.
func (d *LocalDiagnoser) Diagnose(ctx context.Context, log *failurelog.Log) (*rawOutcome, error) {
	diag := d.FW.DiagnoseCtx
	if d.Multi {
		diag = d.FW.DiagnoseMultiCtx
	}
	_, o, err := diag(ctx, d.Bundle, log)
	if err != nil {
		return nil, err
	}
	ro := &rawOutcome{
		PredictedTier: o.PredictedTier,
		Confidence:    o.Confidence,
		Pruned:        o.Pruned,
		FaultyMIVs:    o.FaultyMIVs,
	}
	for _, c := range o.Report.Candidates {
		ro.Cands = append(ro.Cands, rawCand{Fault: c.Fault, Score: c.Score})
	}
	return ro, nil
}

// NewLocalDiagnosers builds one in-process diagnoser per worker. Workers
// share the bundle: every diagnosis already runs on a fork from the
// engine's pool. Each gets its own framework replica cloned through a
// Save/Load round trip — GNN models carry shared forward-pass buffers, so
// workers may never share one. Every worker uses a clone (the original
// framework is left untouched), so any worker count produces
// bitwise-identical per-log results.
func NewLocalDiagnosers(fw *core.Framework, b *dataset.Bundle, workers int, multi bool) ([]Diagnoser, error) {
	if workers < 1 {
		workers = 1
	}
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		return nil, fmt.Errorf("volume: clone framework: %w", err)
	}
	out := make([]Diagnoser, workers)
	for w := range out {
		clone, err := core.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("volume: clone framework: %w", err)
		}
		out[w] = &LocalDiagnoser{FW: clone, Bundle: b, Multi: multi}
	}
	return out, nil
}

// RemoteDiagnoser offloads diagnoses to an m3dserve fleet through the
// retrying serve.Client. The client is safe for concurrent use, so one
// RemoteDiagnoser may back every campaign worker (NewRemoteDiagnosers
// hands the same instance to each); the client's retry/backoff semantics
// let a campaign saturate a load-shedding fleet without losing logs.
type RemoteDiagnoser struct {
	Client *serve.Client
	// Timeout is the per-request server-side deadline (0 = server default).
	Timeout time.Duration
	// Multi selects the multi-fault diagnosis path.
	Multi bool
}

// Diagnose implements Diagnoser over HTTP.
func (d *RemoteDiagnoser) Diagnose(ctx context.Context, log *failurelog.Log) (*rawOutcome, error) {
	resp, err := d.Client.Diagnose(ctx, log, serve.DiagnoseOptions{Multi: d.Multi, Timeout: d.Timeout})
	if err != nil {
		return nil, fmt.Errorf("remote diagnose: %w", err)
	}
	return outcomeFromResponse(resp), nil
}

// NewRemoteDiagnosers returns the per-worker diagnoser slice for a remote
// campaign: the same concurrency-safe instance for every worker.
func NewRemoteDiagnosers(client *serve.Client, timeout time.Duration, workers int, multi bool) []Diagnoser {
	if workers < 1 {
		workers = 1
	}
	d := &RemoteDiagnoser{Client: client, Timeout: timeout, Multi: multi}
	out := make([]Diagnoser, workers)
	for i := range out {
		out[i] = d
	}
	return out
}
