// Package dataset implements the paper's data-generation flow (Fig. 4):
// synthesize a benchmark, derive its design configurations (Syn-1, TPI,
// Syn-2, Par, and randomly partitioned variants for augmentation), insert
// DfT, generate TDF patterns, and produce labeled failure-log samples by
// fault injection and simulation.
package dataset

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/atpg"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/hgraph"
	"repro/internal/netlist"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/scan"
)

// ConfigName identifies a design configuration from the paper.
type ConfigName string

// The four evaluated configurations plus the random-partition
// augmentation source.
const (
	Syn1     ConfigName = "syn1" // training configuration
	TPI      ConfigName = "tpi"  // test-point-inserted netlist
	Syn2     ConfigName = "syn2" // resynthesized at another clock
	Par      ConfigName = "par"  // alternative (SA) partitioner
	RandPart ConfigName = "rand" // random partition (data augmentation)
)

// Configs lists the evaluated configurations in the paper's order.
func Configs() []ConfigName { return []ConfigName{Syn1, TPI, Syn2, Par} }

// Bundle holds everything needed to generate and diagnose samples for one
// (benchmark, configuration) pair.
type Bundle struct {
	Name    string
	Profile gen.Profile
	Config  ConfigName
	Netlist *netlist.Netlist
	Arch    *scan.Arch
	ATPG    *atpg.Result
	Graph   *hgraph.Graph
	Diag    *diagnosis.Engine

	faults    []faultsim.Fault
	mivFaults []faultsim.Fault
	// tierFaults groups the gate faults by the tier of their site gate;
	// tiers with fewer than two eligible faults are excluded so multi-fault
	// draws always find a valid tier (MIV faults belong to no tier and are
	// never included).
	tierFaults [][]faultsim.Fault
}

// groupFaultsByTier builds the per-tier gate-fault pools used by
// multi-fault sampling, dropping tiers that cannot host a 2+ fault defect.
func groupFaultsByTier(n *netlist.Netlist, faults []faultsim.Fault) [][]faultsim.Fault {
	maxTier := int8(1)
	for _, g := range n.Gates {
		if g.Tier > maxTier {
			maxTier = g.Tier
		}
	}
	byTier := make([][]faultsim.Fault, maxTier+1)
	for _, f := range faults {
		t := n.Gates[f.SiteGate(n)].Tier
		if t < 0 {
			continue
		}
		byTier[t] = append(byTier[t], f)
	}
	eligible := byTier[:0]
	for _, fs := range byTier {
		if len(fs) >= 2 {
			eligible = append(eligible, fs)
		}
	}
	return eligible
}

// BuildOptions tunes bundle construction.
type BuildOptions struct {
	Seed int64
	// Tiers is the number of device tiers (default 2).
	Tiers int
	// ATPG overrides pattern generation options (zero value = defaults).
	ATPG atpg.Options
	// Diagnosis overrides report construction options.
	Diagnosis diagnosis.Options
	// RandVariant selects among random partitions when Config==RandPart.
	RandVariant int64
	// Workers bounds construction parallelism (0 = all cores): tiled
	// generation of paper-scale designs and the graph's Topedge
	// statistics. The bundle is identical for every worker count.
	Workers int
}

// Build constructs the bundle for one configuration. The same base seed
// always generates the same underlying RTL, so configurations of one
// benchmark are true functional siblings.
func Build(p gen.Profile, cfg ConfigName, opt BuildOptions) (*Bundle, error) {
	var base *netlist.Netlist
	if p.TargetGates >= gen.LargeGateThreshold {
		base = gen.GenerateLarge(p, opt.Seed, opt.Workers)
	} else {
		base = gen.Generate(p, opt.Seed)
	}
	var nl2d *netlist.Netlist
	method := partition.FM
	pseed := opt.Seed + 101
	switch cfg {
	case Syn1:
		nl2d = base
	case Syn2:
		nl2d = gen.Resynthesize(base, opt.Seed+11, 0.35)
	case TPI:
		nl2d = gen.InsertTestPoints(base, 0.01)
	case Par:
		nl2d = base
		method = partition.SA
	case RandPart:
		nl2d = base
		method = partition.Random
		pseed = opt.Seed + 1000 + opt.RandVariant
	default:
		return nil, fmt.Errorf("dataset: unknown configuration %q", cfg)
	}
	m3d, err := partition.Partition(nl2d, method, partition.Options{Seed: pseed, Tiers: opt.Tiers})
	if err != nil {
		return nil, err
	}
	m3d.Name = fmt.Sprintf("%s_%s", p.Name, cfg)

	aopt := opt.ATPG
	if aopt.Seed == 0 {
		aopt.Seed = opt.Seed + 7
	}
	ares, err := atpg.Generate(m3d, aopt)
	if err != nil {
		return nil, err
	}
	arch, err := scan.Build(m3d, p.ScanChains, p.CompactionRatio)
	if err != nil {
		return nil, err
	}
	diag, err := diagnosis.NewEngine(arch, ares.Patterns, opt.Diagnosis)
	if err != nil {
		return nil, err
	}
	faults := faultsim.AllFaults(m3d)
	return &Bundle{
		Name:       m3d.Name,
		Profile:    p,
		Config:     cfg,
		Netlist:    m3d,
		Arch:       arch,
		ATPG:       ares,
		Graph:      hgraph.Build(arch, opt.Workers),
		Diag:       diag,
		faults:     faults,
		mivFaults:  faultsim.MIVFaults(m3d),
		tierFaults: groupFaultsByTier(m3d, faults),
	}, nil
}

// Sample is one labeled diagnosis case: the injected ground truth, the
// tester failure log, and the back-traced subgraph.
type Sample struct {
	Faults []faultsim.Fault
	// Sites holds the value-carrying site gate of each fault (the driving
	// gate for input-pin faults); this is the ground-truth "location".
	Sites []int
	Log   *failurelog.Log
	SG    *hgraph.Subgraph
	// TierLabel is the 0-based tier index of the fault site(s) for gate
	// faults (1 = top in two-tier designs), or -1 for MIV faults, which
	// belong to no tier.
	TierLabel int
}

// SampleOptions drives sample generation.
type SampleOptions struct {
	Count     int
	Compacted bool
	Seed      int64
	// MIVFraction of samples inject an MIV fault (default 0.1).
	MIVFraction float64
	// MultiFault injects 2-5 same-tier faults per sample when true
	// (Section VII-A).
	MultiFault bool
	// Systematic plants a campaign-level systematic defect: each attempt
	// injects SystematicFault with this probability instead of drawing a
	// random fault, so a generated batch of failure logs models a defect
	// mechanism repeating across dies (the population volume diagnosis must
	// separate from the random background). 0 disables and leaves the
	// sample stream bitwise-unchanged.
	Systematic float64
	// SystematicFault is the planted defect used when Systematic > 0;
	// pick one deterministically with Bundle.PickSystematicFault.
	SystematicFault faultsim.Fault
	// MaxFails truncates each failure log to its first MaxFails failing
	// bits, modeling the fail-memory limit of production testers
	// (default 256).
	MaxFails int
	// Noise perturbs each simulated failure log with the tester-
	// imperfection model before truncation and back-tracing (nil or an
	// identity model leaves the pipeline bitwise-unchanged). Attempts whose
	// log is emptied by noise are rejected like undetected faults: every
	// sample still corresponds to a chip the tester saw failing.
	Noise *noise.Model
	// Workers bounds the injection/back-trace fan-out (0 = all cores).
	// The generated samples are identical for every worker count.
	Workers int
	// Obs, when non-nil, receives generation telemetry: attempt/accept/
	// reject counters (rejects labeled by reason, including noise-emptied
	// logs) and a samples-per-second gauge. The attempt count depends on
	// batch sizing (and therefore worker count); the produced samples never
	// do.
	Obs *obs.Registry
}

// attemptFactor bounds total injection attempts at Count*attemptFactor,
// so a pattern set that detects almost nothing cannot loop forever.
const attemptFactor = 60

// Generate draws fault-injection samples. Faults whose failure log is
// empty (undetected by the pattern set) are re-drawn, mirroring the paper
// where each sample corresponds to a failing chip.
//
// Attempts are indexed and each derives its own RNG stream from
// (opt.Seed, index), so attempts are independent and can run on any
// worker in any order: the output is always the first Count successful
// attempts in index order, bitwise-identical for every worker count.
func (b *Bundle) Generate(opt SampleOptions) []Sample {
	if opt.MIVFraction == 0 {
		opt.MIVFraction = 0.1
	}
	if opt.MaxFails == 0 {
		opt.MaxFails = 256
	}
	workers := par.Workers(opt.Workers)
	// Every worker injects on a fork, so generation never touches the
	// scratch of b.Diag, which concurrent diagnoses may be using.
	engines := make([]*diagnosis.Engine, workers)
	for i := range engines {
		engines[i] = b.Diag.Fork()
	}
	// Telemetry handles resolved once; all nil (free no-ops) when opt.Obs
	// is nil. Attempt accounting always satisfies attempts == accepted +
	// sum(rejected by reason) because every attempt either yields a sample
	// or names its rejection reason.
	var start time.Time
	if opt.Obs != nil {
		opt.Obs.Describe("m3d_dataset_attempts_total", "Fault-injection attempts executed by dataset generation.")
		opt.Obs.Describe("m3d_dataset_accepted_total", "Attempts that produced a usable labeled sample.")
		opt.Obs.Describe("m3d_dataset_rejected_total", "Attempts rejected, labeled by reason (undetected, noise_emptied, no_multi_tier).")
		opt.Obs.Describe("m3d_dataset_samples_per_second", "Throughput of the most recent Generate call.")
		start = time.Now()
	}
	cAttempts := opt.Obs.Counter("m3d_dataset_attempts_total")
	cAccepted := opt.Obs.Counter("m3d_dataset_accepted_total")
	maxAttempts := opt.Count * attemptFactor
	// Batch sizing trades wasted attempts past Count against fan-out
	// efficiency; it has no effect on which samples are produced.
	batch := 4 * workers
	if batch < 8 {
		batch = 8
	}
	out := make([]Sample, 0, opt.Count)
	for next := 0; len(out) < opt.Count && next < maxAttempts; next += batch {
		n := batch
		if next+n > maxAttempts {
			n = maxAttempts - next
		}
		results := par.MapWorker(workers, n, func(w, i int) attemptResult {
			return b.attempt(engines[w], uint64(next+i), opt)
		})
		cAttempts.Add(int64(n))
		for _, r := range results {
			if r.s == nil {
				opt.Obs.Counter("m3d_dataset_rejected_total", "reason", r.reject).Inc()
				continue
			}
			cAccepted.Inc()
			if len(out) < opt.Count {
				out = append(out, *r.s)
			}
		}
	}
	if opt.Obs != nil {
		if dt := time.Since(start).Seconds(); dt > 0 {
			opt.Obs.Gauge("m3d_dataset_samples_per_second").Set(float64(len(out)) / dt)
		}
	}
	return out
}

// attemptResult pairs an attempt's sample with its rejection reason ("" on
// success) so generation telemetry can break rejects down by cause.
type attemptResult struct {
	s      *Sample
	reject string
}

// attempt runs one indexed injection attempt on the given (possibly
// forked) diagnosis engine. It returns nil when the drawn fault set is
// undetected by the pattern set (the attempt is rejected, matching the
// paper's "every sample is a failing chip").
func (b *Bundle) attempt(eng *diagnosis.Engine, index uint64, opt SampleOptions) attemptResult {
	rng := rand.New(rand.NewSource(par.SeedFor(opt.Seed, index)))
	var faults []faultsim.Fault
	switch {
	case opt.MultiFault:
		faults = b.drawMultiFault(rng)
		if len(faults) < 2 {
			return attemptResult{reject: "no_multi_tier"} // no tier can host a multi-fault defect
		}
	case opt.Systematic > 0 && rng.Float64() < opt.Systematic:
		faults = []faultsim.Fault{opt.SystematicFault}
	case rng.Float64() < opt.MIVFraction && len(b.mivFaults) > 0:
		faults = []faultsim.Fault{b.mivFaults[rng.Intn(len(b.mivFaults))]}
	default:
		faults = []faultsim.Fault{b.faults[rng.Intn(len(b.faults))]}
	}
	log := eng.InjectLog(faults, opt.Compacted)
	if log.Empty() {
		return attemptResult{reject: "undetected"}
	}
	if !opt.Noise.IsIdentity() {
		log = opt.Noise.Apply(log, index, b.ATPG.Patterns.N, b.Arch.NumObs(opt.Compacted))
		if log.Empty() {
			return attemptResult{reject: "noise_emptied"}
		}
	}
	if len(log.Fails) > opt.MaxFails {
		log.Fails = log.Fails[:opt.MaxFails]
		log.Truncated = true
	}
	sg := b.Graph.Backtrace(log, eng.Result())
	sites := make([]int, len(faults))
	for i, f := range faults {
		sites[i] = f.SiteGate(b.Netlist)
	}
	return attemptResult{s: &Sample{
		Faults:    faults,
		Sites:     sites,
		Log:       log,
		SG:        sg,
		TierLabel: tierLabel(b.Netlist, faults),
	}}
}

// drawMultiFault picks 2-5 gate faults in one tier (systematic defects).
// Only tiers holding at least two eligible faults are drawn from, so the
// result always has >= 2 faults (or is nil when no tier qualifies).
func (b *Bundle) drawMultiFault(rng *rand.Rand) []faultsim.Fault {
	if len(b.tierFaults) == 0 {
		return nil
	}
	pool := b.tierFaults[rng.Intn(len(b.tierFaults))]
	count := 2 + rng.Intn(4)
	if count > len(pool) {
		count = len(pool)
	}
	out := make([]faultsim.Fault, 0, count)
	seen := make(map[faultsim.Fault]bool, count)
	for len(out) < count {
		f := pool[rng.Intn(len(pool))]
		if seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

// tierLabel derives the sample's tier label: the common tier of the
// injected faults, or -1 for MIV faults.
func tierLabel(n *netlist.Netlist, faults []faultsim.Fault) int {
	label := -1
	for _, f := range faults {
		t, ok := hgraph.TrueTier(n, f.SiteGate(n))
		if !ok {
			return -1
		}
		label = t
	}
	return label
}

// PickSystematicFault deterministically selects a gate fault that the
// bundle's pattern set detects, for planting as a campaign's systematic
// defect (SampleOptions.SystematicFault). The choice depends only on
// (bundle, seed): the scan starts at a splitmix-derived index into the
// fault pool and wraps until a detected gate (non-MIV) fault is found, so
// different seeds plant different defect mechanisms. ok=false when no
// fault in the pool is detected (a degenerate pattern set). Safe for
// concurrent use: detection runs on the diagnosis engine's pooled forks.
func (b *Bundle) PickSystematicFault(seed int64) (faultsim.Fault, bool) {
	if len(b.faults) == 0 {
		return faultsim.Fault{}, false
	}
	start := int(par.SplitMix64(uint64(seed)) % uint64(len(b.faults)))
	for i := 0; i < len(b.faults); i++ {
		f := b.faults[(start+i)%len(b.faults)]
		if b.Netlist.Gates[f.SiteGate(b.Netlist)].IsMIV {
			continue
		}
		if b.Diag.Detects(f) {
			return f, true
		}
	}
	return faultsim.Fault{}, false
}

// FaultPool exposes the full TDF list (for diagnosis experiments).
func (b *Bundle) FaultPool() []faultsim.Fault { return b.faults }

// MIVFaultPool exposes the MIV-only TDF list.
func (b *Bundle) MIVFaultPool() []faultsim.Fault { return b.mivFaults }
