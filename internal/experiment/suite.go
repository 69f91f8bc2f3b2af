package experiment

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/obs"
	"repro/internal/par"
)

// Suite runs the paper's experiments with shared, cached state: one bundle
// per (design, configuration) and one trained framework per (design,
// observation mode). The caches are memoizing singleflights, so concurrent
// experiments never build the same bundle or framework twice.
type Suite struct {
	// Scale multiplies every design profile (1.0 = the full scaled-down
	// benchmarks of DESIGN.md).
	Scale float64
	// TrainCount and TestCount are per-configuration sample counts. The
	// paper uses 5000/750; defaults here are 240/100 so the whole suite
	// runs in minutes.
	TrainCount, TestCount int
	// Designs restricts the benchmark list (default: all four).
	Designs []string
	// Seed drives everything.
	Seed int64
	// Workers bounds the suite's parallelism (0 = all cores): bundle
	// construction, sample generation, diagnosis fan-out, and GNN
	// mini-batch training. Every printed table is identical for every
	// worker count.
	Workers int
	// NoiseLevels are the tester-noise severities swept by the "noise"
	// experiment (level 0 is the clean pipeline).
	NoiseLevels []float64
	// Arch selects the GNN architecture every framework trains with (zero =
	// the paper's default GCN). The "zoo" experiment sweeps all registered
	// architectures regardless of this setting.
	Arch gnn.ArchSpec
	// TransferEpochs is the fine-tuning budget of the "transfer"
	// experiment (and its matched from-scratch control).
	TransferEpochs int
	// CheckpointDir, when set, makes framework training write periodic
	// checkpoints under per-(design, mode) subdirectories and resume from
	// them on a rerun.
	CheckpointDir string
	// Obs, when non-nil, receives suite telemetry: singleflight
	// hit/miss counters per cache plus the training and data-generation
	// metrics of the underlying packages. Set before the first Run call.
	Obs *obs.Registry
	// W receives the table/figure output.
	W io.Writer

	obsOnce    sync.Once
	bundles    par.Flight[*dataset.Bundle]
	frameworks par.Flight[*core.Framework]
	baselines  par.Flight[*baseline.Model]
	samples    par.Flight[[]dataset.Sample]
	runtime    map[string]*RuntimeBreakdown

	repMu   sync.Mutex
	reports map[*failurelog.Log]*diagnosis.Report
}

// NewSuite returns a suite with defaults applied.
func NewSuite(w io.Writer) *Suite {
	return &Suite{
		Scale:          1.0,
		TrainCount:     240,
		TestCount:      100,
		Designs:        []string{"aes", "tate", "netcard", "leon3mp"},
		Seed:           1,
		NoiseLevels:    []float64{0, 0.25, 0.5, 0.75, 1.0},
		TransferEpochs: 5,
		W:              w,
		runtime:        map[string]*RuntimeBreakdown{},
		reports:        map[*failurelog.Log]*diagnosis.Report{},
	}
}

// checkpointDir returns the per-(design, mode, arch) checkpoint directory,
// or "" when checkpointing is disabled. The directory is created on demand
// so gnn checkpoint writes never race a missing parent. Non-default
// architectures get their own subdirectory: checkpoint resume validates
// the architecture, so mixing specs in one directory would fail a rerun.
func (s *Suite) checkpointDir(design string, compacted bool, arch gnn.ArchSpec) string {
	if s.CheckpointDir == "" {
		return ""
	}
	mode := "bypass"
	if compacted {
		mode = "edt"
	}
	name := design + "_" + mode
	if a := arch.String(); a != string(gnn.ArchGCN) {
		r := strings.NewReplacer(":", "_", ",", "-")
		name += "_" + r.Replace(a)
	}
	dir := filepath.Join(s.CheckpointDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "" // fall back to uncheckpointed training
	}
	return dir
}

// Experiments lists the runnable experiment names in paper order.
func Experiments() []string {
	return []string{
		"table2", "table3", "fig5", "fig6",
		"table5", "table6", "table7", "table8",
		"table9", "fig10", "table10", "table11", "ablations", "noise",
		"volume", "zoo", "transfer",
	}
}

// Run executes one experiment by name, or every experiment for "all".
func (s *Suite) Run(name string) error {
	return s.RunContext(context.Background(), name)
}

// RunContext is Run with cooperative cancellation: the context is checked
// before each experiment, so an interrupted "all" run stops at the next
// experiment boundary with every completed table already printed and every
// training checkpoint already flushed.
func (s *Suite) RunContext(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	s.obsOnce.Do(s.wireObs)
	if name == "all" {
		// Bundle construction (partitioning, ATPG, scan stitching) is the
		// dominant fixed cost and every bundle is independent, so warm the
		// cache with a parallel fan-out before the sequential printers run.
		if err := s.prefetchBundles(); err != nil {
			return err
		}
		for _, e := range Experiments() {
			if err := s.RunContext(ctx, e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	}
	switch name {
	case "table2":
		return s.Table2()
	case "table3":
		return s.Table3()
	case "fig5":
		return s.Fig5()
	case "fig6":
		return s.Fig6()
	case "table5":
		return s.TableATPGQuality(false, "Table V: quality of ATPG diagnosis reports (no compaction)")
	case "table7":
		return s.TableATPGQuality(true, "Table VII: quality of ATPG diagnosis reports (with compaction)")
	case "table6":
		return s.TableLocalization(false, "Table VI: delay-fault localization (no compaction)")
	case "table8":
		return s.TableLocalization(true, "Table VIII: delay-fault localization (with compaction)")
	case "table9":
		return s.Table9()
	case "fig10":
		return s.Fig10()
	case "table10":
		return s.Table10()
	case "table11":
		return s.Table11()
	case "ablations":
		return s.Ablations()
	case "noise":
		return s.TableNoise()
	case "volume":
		return s.TableVolume()
	case "zoo":
		return s.TableZoo()
	case "transfer":
		return s.TableTransfer()
	}
	return fmt.Errorf("experiment: unknown experiment %q (have %v)", name, Experiments())
}

// wireObs attaches singleflight hit/miss counters to the suite's caches.
// With a nil registry every handle is nil, so the hooks stay unset and Do
// runs exactly as before.
func (s *Suite) wireObs() {
	if s.Obs == nil {
		return
	}
	s.Obs.Describe("m3d_suite_cache_total", "Singleflight lookups in the experiment suite, labeled by cache and hit/miss.")
	hook := func(cache string) func(string, bool) {
		hit := s.Obs.Counter("m3d_suite_cache_total", "cache", cache, "result", "hit")
		miss := s.Obs.Counter("m3d_suite_cache_total", "cache", cache, "result", "miss")
		return func(_ string, wasHit bool) {
			if wasHit {
				hit.Inc()
			} else {
				miss.Inc()
			}
		}
	}
	s.bundles.Hook = hook("bundles")
	s.frameworks.Hook = hook("frameworks")
	s.baselines.Hook = hook("baselines")
	s.samples.Hook = hook("samples")
}

// profile returns the (possibly rescaled) profile of a design.
func (s *Suite) profile(design string) (gen.Profile, error) {
	p, ok := gen.ProfileByName(design)
	if !ok {
		return gen.Profile{}, fmt.Errorf("experiment: unknown design %q", design)
	}
	if s.Scale != 1.0 {
		p = p.Scaled(s.Scale)
	}
	return p, nil
}

// prefetchBundles constructs every (design, config) bundle the full suite
// needs, fanned out over workers. Duplicate requests from the experiment
// printers then hit the singleflight cache.
func (s *Suite) prefetchBundles() error {
	type spec struct {
		design  string
		cfg     dataset.ConfigName
		variant int64
	}
	var specs []spec
	for _, d := range s.Designs {
		for _, cfg := range dataset.Configs() {
			specs = append(specs, spec{d, cfg, 0})
		}
		specs = append(specs, spec{d, dataset.RandPart, 1}, spec{d, dataset.RandPart, 2})
	}
	errs := par.Map(par.Workers(s.Workers), len(specs), func(i int) error {
		_, err := s.bundle(specs[i].design, specs[i].cfg, specs[i].variant)
		return err
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bundle returns the cached bundle for (design, config).
func (s *Suite) bundle(design string, cfg dataset.ConfigName, randVariant int64) (*dataset.Bundle, error) {
	key := fmt.Sprintf("%s/%s/%d", design, cfg, randVariant)
	return s.bundles.Do(key, func() (*dataset.Bundle, error) {
		p, err := s.profile(design)
		if err != nil {
			return nil, err
		}
		return dataset.Build(p, cfg, dataset.BuildOptions{Seed: s.Seed, RandVariant: randVariant})
	})
}

// testSamples returns cached test samples for one (design, config, mode).
func (s *Suite) testSamples(design string, cfg dataset.ConfigName, compacted bool) ([]dataset.Sample, *dataset.Bundle, error) {
	b, err := s.bundle(design, cfg, 0)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("test/%s/%s/%v", design, cfg, compacted)
	ss, err := s.samples.Do(key, func() ([]dataset.Sample, error) {
		return b.Generate(dataset.SampleOptions{
			Count: s.TestCount, Compacted: compacted, Seed: s.Seed + 40 + hash(key),
			Workers: s.Workers, Obs: s.Obs,
		}), nil
	})
	return ss, b, err
}

// trainSamples builds the transferable training set for a design: Syn-1
// plus two randomly partitioned variants (Section IV's augmentation).
func (s *Suite) trainSamples(design string, compacted bool) ([]dataset.Sample, error) {
	key := fmt.Sprintf("train/%s/%v", design, compacted)
	return s.samples.Do(key, func() ([]dataset.Sample, error) {
		var out []dataset.Sample
		half := s.TrainCount / 2
		quarter := (s.TrainCount - half) / 2
		specs := []struct {
			cfg     dataset.ConfigName
			variant int64
			count   int
		}{
			{dataset.Syn1, 0, half},
			{dataset.RandPart, 1, quarter},
			{dataset.RandPart, 2, s.TrainCount - half - quarter},
		}
		for i, sp := range specs {
			b, err := s.bundle(design, sp.cfg, sp.variant)
			if err != nil {
				return nil, err
			}
			out = append(out, b.Generate(dataset.SampleOptions{
				Count: sp.count, Compacted: compacted,
				Seed: s.Seed + 100 + int64(i) + hash(key), MIVFraction: 0.2,
				Workers: s.Workers, Obs: s.Obs,
			})...)
		}
		return out, nil
	})
}

// framework returns the trained framework for (design, mode) under the
// suite's architecture.
func (s *Suite) framework(design string, compacted bool) (*core.Framework, error) {
	return s.frameworkArch(design, compacted, s.Arch)
}

// frameworkArch returns the trained framework for (design, mode, arch);
// the zoo experiment sweeps architectures through this cache while every
// other experiment shares the suite-default entry.
func (s *Suite) frameworkArch(design string, compacted bool, arch gnn.ArchSpec) (*core.Framework, error) {
	key := fmt.Sprintf("%s/%v/%s", design, compacted, arch.String())
	return s.frameworks.Do(key, func() (*core.Framework, error) {
		train, err := s.trainSamples(design, compacted)
		if err != nil {
			return nil, err
		}
		return core.Train(train, core.TrainOptions{
			Seed: s.Seed + 7, Workers: s.Workers, Arch: arch, Obs: s.Obs,
			CheckpointDir: s.checkpointDir(design, compacted, arch),
		})
	})
}

// baselineModel returns the trained PADRE-like first-level classifier for
// (design, mode), fit on candidates from the Syn-1 training samples.
func (s *Suite) baselineModel(design string, compacted bool) (*baseline.Model, error) {
	key := fmt.Sprintf("%s/%v", design, compacted)
	return s.baselines.Do(key, func() (*baseline.Model, error) {
		b, err := s.bundle(design, dataset.Syn1, 0)
		if err != nil {
			return nil, err
		}
		// Candidate labeling must diagnose on the same netlist the samples
		// were injected into, so the baseline trains on Syn-1 samples only.
		limit := s.TrainCount / 2
		if limit > 120 {
			limit = 120 // candidate labeling is diagnosis-heavy
		}
		train := b.Generate(dataset.SampleOptions{
			Count: limit, Compacted: compacted, Seed: s.Seed + 200 + hash(key),
			Workers: s.Workers, Obs: s.Obs,
		})
		reps := s.parallelDiagnose(b, train, false)
		var samples []baseline.Sample
		for si, smp := range train {
			rep := reps[si]
			if len(rep.Candidates) == 0 {
				continue
			}
			best := rep.Candidates[0].Score
			for rank, c := range rep.Candidates {
				isDefect := false
				for _, truth := range smp.Faults {
					if c.Fault.SiteGate(b.Netlist) == truth.SiteGate(b.Netlist) && c.Fault.Pol == truth.Pol {
						isDefect = true
					}
				}
				samples = append(samples, baseline.Sample{
					Features: baseline.CandidateFeatures(c, rank, len(rep.Candidates), best, b.Netlist),
					IsDefect: isDefect,
				})
			}
		}
		return baseline.Train(samples, 0, 0, 0.02), nil
	})
}

// diagnose runs (or returns the cached) ATPG diagnosis of a sample's
// failure log. Tables V/VI and VII/VIII share test sets, so caching halves
// the diagnosis cost of a full run. Runtime measurements bypass the cache.
func (s *Suite) diagnose(b *dataset.Bundle, log *failurelog.Log) *diagnosis.Report {
	s.repMu.Lock()
	rep, ok := s.reports[log]
	s.repMu.Unlock()
	if ok {
		return rep
	}
	rep = b.Diag.Diagnose(log)
	s.repMu.Lock()
	s.reports[log] = rep
	s.repMu.Unlock()
	return rep
}

// parallelDiagnose diagnoses every sample's failure log, fanned out over
// forked engines, and returns the reports aligned with samples. With
// cache=true the suite report cache is consulted and filled, so subsequent
// s.diagnose calls for the same logs are hits.
func (s *Suite) parallelDiagnose(b *dataset.Bundle, samples []dataset.Sample, cache bool) []*diagnosis.Report {
	return s.parallelDiagnoseMode(b, samples, cache, false)
}

// parallelDiagnoseMulti is parallelDiagnose through the multi-fault
// diagnosis path (never cached — its reports differ from single-fault
// ones).
func (s *Suite) parallelDiagnoseMulti(b *dataset.Bundle, samples []dataset.Sample) []*diagnosis.Report {
	return s.parallelDiagnoseMode(b, samples, false, true)
}

func (s *Suite) parallelDiagnoseMode(b *dataset.Bundle, samples []dataset.Sample, cache, multi bool) []*diagnosis.Report {
	out := make([]*diagnosis.Report, len(samples))
	var todo []int
	if cache {
		s.repMu.Lock()
		for i, smp := range samples {
			if rep, ok := s.reports[smp.Log]; ok {
				out[i] = rep
			} else {
				todo = append(todo, i)
			}
		}
		s.repMu.Unlock()
	} else {
		todo = make([]int, len(samples))
		for i := range todo {
			todo[i] = i
		}
	}
	if len(todo) == 0 {
		return out
	}
	// Every diagnosis runs on a fork from the engine's pool, so the
	// workers share b.Diag.
	reps := par.Map(s.Workers, len(todo), func(i int) *diagnosis.Report {
		if multi {
			return b.Diag.DiagnoseMulti(samples[todo[i]].Log)
		}
		return b.Diag.Diagnose(samples[todo[i]].Log)
	})
	for k, i := range todo {
		out[i] = reps[k]
	}
	if cache {
		s.repMu.Lock()
		for k, i := range todo {
			s.reports[samples[i].Log] = reps[k]
		}
		s.repMu.Unlock()
	}
	return out
}

func hash(s string) int64 {
	h := int64(0)
	for _, c := range s {
		h = h*131 + int64(c)
	}
	if h < 0 {
		h = -h
	}
	return h % 10000
}

func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.W, format, args...)
}

// sortedKeys is a tiny helper for deterministic map iteration in reports.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
