// Package core assembles the paper's primary contribution: the GNN-based
// tier-level delay-fault localization framework for monolithic 3-D ICs.
// A Framework bundles the three trained models — Tier-predictor,
// MIV-pinpointer, and the transfer-learned pruning Classifier — together
// with the PR-curve threshold T_P, and deploys them as the candidate
// pruning and reordering policy on ATPG diagnosis reports.
//
// Typical use:
//
//	bundle, _ := dataset.Build(profile, dataset.Syn1, dataset.BuildOptions{Seed: 1})
//	train := bundle.Generate(dataset.SampleOptions{Count: 400, Seed: 2})
//	fw, _ := core.Train(train, core.TrainOptions{Seed: 3})
//	outcome := fw.Diagnose(bundle, failureLog)
package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/gnn"
	"repro/internal/hgraph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/policy"
)

// Framework is the trained diagnosis framework.
type Framework struct {
	Tier *gnn.TierPredictor
	MIV  *gnn.MIVPinpointer
	Cls  *gnn.Classifier
	// TP is the classification threshold derived from the training PR
	// curve at the precision target.
	TP float64
}

// TrainOptions configures framework training.
type TrainOptions struct {
	Seed int64
	// Epochs for each model; default 30.
	Epochs int
	// Arch selects the GNN architecture from the model registry for the
	// Tier-predictor and MIV-pinpointer (the Classifier inherits the
	// Tier-predictor's architecture via transfer learning). The zero spec is
	// the paper's default GCN and trains bitwise-identically to the
	// pre-registry code.
	Arch gnn.ArchSpec
	// PrecisionTarget for T_P selection; default 0.99 (the paper's <1%
	// accuracy-loss budget).
	PrecisionTarget float64
	// SkipClassifier trains without the prune/reorder Classifier
	// (high-confidence predictions then always prune).
	SkipClassifier bool
	// Workers bounds mini-batch training parallelism for all three models
	// (0 = all cores). The trained weights are identical for every worker
	// count.
	Workers int
	// CheckpointDir enables periodic training checkpoints: each model
	// writes <dir>/{tier,cls,miv}.ckpt and an interrupted Train resumes
	// from them, producing bitwise-identical weights to an uninterrupted
	// run. "" disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the epoch interval between checkpoints (default 1).
	CheckpointEvery int
	// Stats, when non-nil, aggregates training counters (finite-loss-guard
	// skips, resumed epochs) across the three models.
	Stats *gnn.TrainStats
	// Obs receives per-epoch training telemetry (loss, grad norm, epoch
	// time) for all three models, labeled model="tier"/"cls"/"miv". Nil
	// disables telemetry at zero cost.
	Obs *obs.Registry
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 30
	}
	if o.PrecisionTarget == 0 {
		o.PrecisionTarget = 0.99
	}
	return o
}

// Train fits the framework on labeled samples (typically Syn-1 plus
// randomly partitioned variants for transferability, Section IV). With
// opt.CheckpointDir set, a Train interrupted mid-way resumes from the last
// checkpoint files and still produces the weights of an uninterrupted run.
func Train(samples []dataset.Sample, opt TrainOptions) (*Framework, error) {
	opt = opt.withDefaults()
	ckpt := func(name string) gnn.CheckpointConfig {
		if opt.CheckpointDir == "" {
			return gnn.CheckpointConfig{}
		}
		return gnn.CheckpointConfig{
			Path:  filepath.Join(opt.CheckpointDir, name+".ckpt"),
			Every: opt.CheckpointEvery,
		}
	}
	// Tier-predictor: gate-fault samples carry tier labels; the output
	// vector is sized to however many tiers the samples cover.
	numTiers := 2
	var tierSamples []gnn.GraphSample
	for _, s := range samples {
		if s.TierLabel < 0 {
			continue
		}
		if s.TierLabel+1 > numTiers {
			numTiers = s.TierLabel + 1
		}
		tierSamples = append(tierSamples, gnn.GraphSample{SG: s.SG, Label: s.TierLabel})
	}
	fw := &Framework{
		Tier: gnn.NewTierPredictorArch(opt.Seed, numTiers, opt.Arch),
		MIV:  gnn.NewMIVPinpointerArch(opt.Seed+1, opt.Arch),
	}
	if _, err := fw.Tier.Train(tierSamples, gnn.TrainConfig{
		Epochs: opt.Epochs, Seed: opt.Seed + 2, FitScaler: true, Workers: opt.Workers,
		Checkpoint: ckpt("tier"), Stats: opt.Stats, Obs: opt.Obs, ObsModel: "tier",
	}); err != nil {
		return nil, fmt.Errorf("core: train tier-predictor: %w", err)
	}

	// T_P from the training PR curve (Section V-B).
	var conf []float64
	var correct []bool
	for _, s := range tierSamples {
		tier, c := fw.Tier.PredictTier(s.SG)
		conf = append(conf, c)
		correct = append(correct, tier == s.Label)
	}
	fw.TP = policy.DeriveTP(conf, correct, opt.PrecisionTarget)

	// Classifier on Predicted Positive samples: label 1 (prune) for True
	// Positives, 0 for False Positives; balance by dummy-buffer
	// oversampling (Section V-C).
	if !opt.SkipClassifier {
		var clsSamples []gnn.GraphSample
		for i, s := range tierSamples {
			if conf[i] < fw.TP {
				continue
			}
			label := 0
			if correct[i] {
				label = 1
			}
			clsSamples = append(clsSamples, gnn.GraphSample{SG: s.SG, Label: label})
		}
		clsSamples = policy.Oversample(clsSamples, opt.Seed+3)
		fw.Cls = gnn.NewClassifier(fw.Tier, opt.Seed+4)
		if _, err := fw.Cls.Train(clsSamples, gnn.TrainConfig{
			Epochs: opt.Epochs / 2, Seed: opt.Seed + 5, Workers: opt.Workers,
			Checkpoint: ckpt("cls"), Stats: opt.Stats, Obs: opt.Obs, ObsModel: "cls",
		}); err != nil {
			return nil, fmt.Errorf("core: train classifier: %w", err)
		}
	}

	// MIV-pinpointer: node classification over MIV nodes of every
	// subgraph; the faulty MIV (if any) is the positive node.
	var nodeSamples []gnn.NodeSample
	for _, s := range samples {
		if len(s.SG.MIVLocal) == 0 || len(s.Faults) != 1 {
			continue
		}
		faultGate := -1
		if s.TierLabel < 0 {
			faultGate = s.Sites[0] // the faulty MIV gate
		}
		ns := gnn.NodeSample{SG: s.SG}
		for k, li := range s.SG.MIVLocal {
			ns.NodeIdx = append(ns.NodeIdx, li)
			if faultGate >= 0 && s.SG.MIVGates[k] == faultGate {
				ns.Labels = append(ns.Labels, 1)
			} else {
				ns.Labels = append(ns.Labels, 0)
			}
		}
		nodeSamples = append(nodeSamples, ns)
	}
	if _, err := fw.MIV.Train(nodeSamples, gnn.TrainConfig{
		Epochs: opt.Epochs, Seed: opt.Seed + 6, FitScaler: true, Workers: opt.Workers,
		Checkpoint: ckpt("miv"), Stats: opt.Stats, Obs: opt.Obs, ObsModel: "miv",
	}); err != nil {
		return nil, fmt.Errorf("core: train miv-pinpointer: %w", err)
	}
	return fw, nil
}

// PolicyFor binds the framework to a design's heterogeneous graph.
func (fw *Framework) PolicyFor(b *dataset.Bundle) *policy.Policy {
	return &policy.Policy{
		Tier:  fw.Tier,
		MIV:   fw.MIV,
		Cls:   fw.Cls,
		TP:    fw.TP,
		Graph: b.Graph,
	}
}

// Diagnose runs the full deployment flow of Fig. 1 for one failure log:
// ATPG diagnosis and GNN back-tracing, which run concurrently, then the
// candidate pruning and reordering policy.
func (fw *Framework) Diagnose(b *dataset.Bundle, log *failurelog.Log) (*diagnosis.Report, *policy.Outcome) {
	rep, out, _ := fw.DiagnoseCtx(context.Background(), b, log)
	return rep, out
}

// DiagnoseCtx is Diagnose with cooperative cancellation threaded through
// both heavy stages (candidate scoring and subgraph back-tracing), so a
// diagnosis whose request deadline expires returns promptly instead of
// running to completion. On cancellation it returns nil results and the
// context's error.
func (fw *Framework) DiagnoseCtx(ctx context.Context, b *dataset.Bundle, log *failurelog.Log) (*diagnosis.Report, *policy.Outcome, error) {
	rep, _, out, err := fw.DiagnoseFullCtx(ctx, b, log)
	return rep, out, err
}

// DiagnoseFullCtx is DiagnoseCtx, additionally returning the back-traced
// subgraph the policy ran on. Shadow evaluation (the fine-tuning service's
// A/B window) re-applies a second policy to the same report and subgraph,
// so both must escape the call. The back-trace runs alongside the ATPG
// diagnosis (see alongside).
func (fw *Framework) DiagnoseFullCtx(ctx context.Context, b *dataset.Bundle, log *failurelog.Log) (*diagnosis.Report, *hgraph.Subgraph, *policy.Outcome, error) {
	return fw.diagnoseWith(ctx, "core.diagnose", b, log, b.Diag.DiagnoseCtx)
}

// DiagnoseMultiCtx is DiagnoseCtx for failure logs that may contain several
// simultaneous same-tier defects (Section VII-A): the ATPG stage uses the
// relaxed multi-fault extraction and greedy set cover, alongside the same
// back-trace.
func (fw *Framework) DiagnoseMultiCtx(ctx context.Context, b *dataset.Bundle, log *failurelog.Log) (*diagnosis.Report, *policy.Outcome, error) {
	rep, _, out, err := fw.diagnoseWith(ctx, "core.diagnose_multi", b, log, b.Diag.DiagnoseMultiCtx)
	return rep, out, err
}

// diagnoseWith is the deployment flow of Fig. 1 under a span named name:
// the bundle's back-trace alongside the given ATPG diagnosis, then the
// pruning and reordering policy on the report and subgraph.
func (fw *Framework) diagnoseWith(ctx context.Context, name string, b *dataset.Bundle, log *failurelog.Log,
	diagnose func(context.Context, *failurelog.Log) (*diagnosis.Report, error),
) (*diagnosis.Report, *hgraph.Subgraph, *policy.Outcome, error) {
	defer obs.Start(ctx, name).End()
	backtrace := func(ctx context.Context, log *failurelog.Log) (*hgraph.Subgraph, error) {
		return b.Graph.BacktraceCtx(ctx, log, b.Diag.Result())
	}
	rep, sg, err := alongside(ctx, log, backtrace, diagnose)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("core: diagnose: %w", err)
	}
	span := obs.Start(ctx, "policy.apply")
	out := fw.PolicyFor(b).ApplyCtx(ctx, rep, sg)
	span.End()
	return rep, sg, out, nil
}

// alongside runs a log's back-trace and its ATPG diagnosis concurrently,
// as Fig. 1 draws them, and returns once both have returned. The
// back-trace reads only immutable state (the graph, the good-machine
// result and the log), so it needs no engine fork. It is one goroutine
// beyond the diagnosis fork pool's GOMAXPROCS budget but adds no CPU
// work: it takes a core the pool leaves idle when one chip runs at a
// time, and shares cores when calls saturate them.
//
// Both stages run under a context derived from ctx, which is cancelled
// when either fails or panics, so the other stops early. alongside
// returns the first error, and a panic in either stage is raised again on
// the caller's goroutine once both have returned (par.ForEachWorker), so a
// recover there still isolates it and no goroutine outlives the call.
func alongside(ctx context.Context, log *failurelog.Log,
	backtrace func(context.Context, *failurelog.Log) (*hgraph.Subgraph, error),
	diagnose func(context.Context, *failurelog.Log) (*diagnosis.Report, error),
) (*diagnosis.Report, *hgraph.Subgraph, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One allocation for everything the two stages share.
	r := &struct {
		rep   *diagnosis.Report
		sg    *hgraph.Subgraph
		mu    sync.Mutex
		first error
	}{}
	par.ForEachWorker(2, 2, func(_, i int) {
		failed := true // until the stage returns without an error
		defer func() {
			if failed {
				cancel()
			}
		}()
		var err error
		if i == 0 {
			r.sg, err = backtrace(ctx, log)
		} else {
			r.rep, err = diagnose(ctx, log)
		}
		if err != nil {
			r.mu.Lock()
			if r.first == nil {
				r.first = err
			}
			r.mu.Unlock()
			return
		}
		failed = false
	})
	if r.first != nil {
		return nil, nil, r.first
	}
	return r.rep, r.sg, nil
}

// frameworkJSON is the serialized framework.
type frameworkJSON struct {
	TP   float64         `json:"tp"`
	Tier json.RawMessage `json:"tier"`
	MIV  json.RawMessage `json:"miv"`
	Cls  json.RawMessage `json:"cls,omitempty"`
}

// Save writes all models and the threshold as a single JSON document.
func (fw *Framework) Save(w io.Writer) error {
	enc := func(m *gnn.Model) (json.RawMessage, error) {
		var buf bytes.Buffer
		if err := gnn.Save(&buf, m); err != nil {
			return nil, err
		}
		return json.RawMessage(buf.Bytes()), nil
	}
	out := frameworkJSON{TP: fw.TP}
	var err error
	if out.Tier, err = enc(fw.Tier.Model); err != nil {
		return err
	}
	if out.MIV, err = enc(fw.MIV.Model); err != nil {
		return err
	}
	if fw.Cls != nil {
		if out.Cls, err = enc(fw.Cls.Model); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// Load reads a framework written by Save.
func Load(r io.Reader) (*Framework, error) {
	var in frameworkJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if len(in.Tier) == 0 || len(in.MIV) == 0 {
		return nil, fmt.Errorf("core: load: framework file is missing the tier or miv model")
	}
	dec := func(raw json.RawMessage) (*gnn.Model, error) {
		return gnn.Load(bytes.NewReader(raw))
	}
	fw := &Framework{TP: in.TP}
	tm, err := dec(in.Tier)
	if err != nil {
		return nil, err
	}
	fw.Tier = &gnn.TierPredictor{Model: tm}
	mm, err := dec(in.MIV)
	if err != nil {
		return nil, err
	}
	fw.MIV = &gnn.MIVPinpointer{Model: mm, Threshold: 0.5}
	if len(in.Cls) > 0 {
		cm, err := dec(in.Cls)
		if err != nil {
			return nil, err
		}
		fw.Cls = &gnn.Classifier{Model: cm}
	}
	return fw, nil
}
