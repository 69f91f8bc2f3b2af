// Package atpg generates launch-on-capture transition-delay-fault test
// patterns, substituting for the commercial ATPG step in the paper's data
// generation flow (Siemens Tessent in Fig. 4). The flow is the standard
// industrial one: bit-parallel random pattern generation with fault
// dropping until the yield of new detections collapses, followed by a
// deterministic top-up phase that targets each remaining fault with a
// two-frame PODEM search and fault-simulates every deterministic pattern
// against the remaining fault list.
package atpg

import (
	"fmt"

	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Options configures pattern generation.
type Options struct {
	// Seed drives random pattern generation.
	Seed int64
	// MaxRandomBatches bounds the number of 64-pattern random batches.
	// Default 48.
	MaxRandomBatches int
	// MinBatchYield stops the random phase once a batch detects fewer new
	// faults than this. Default 3.
	MinBatchYield int
	// TargetCoverage stops generation once detected/total reaches this
	// fraction. Default 0.99.
	TargetCoverage float64
	// TopUp enables the deterministic PODEM phase. Default true unless
	// SkipTopUp is set.
	SkipTopUp bool
	// MaxBacktracks bounds PODEM backtracks per fault. Default 24.
	MaxBacktracks int
	// MaxTopUpFaults bounds how many undetected faults PODEM targets.
	// Default 4000.
	MaxTopUpFaults int
	// Collapse generates against the structurally collapsed fault list
	// (equivalence-class representatives), the commercial convention.
	// Detection and coverage are then per class.
	Collapse bool
}

// Quick returns options tuned for wall-clock-bounded runs on paper-scale
// (100K+ gate) designs: a short random phase against the collapsed fault
// list and no deterministic top-up. Coverage lands well below the default
// 99% target, which is acceptable for paper-scale smoke runs and scale
// benchmarks where pattern quality is not under test.
func Quick() Options {
	return Options{
		MaxRandomBatches: 8,
		MinBatchYield:    3,
		TargetCoverage:   0.55,
		SkipTopUp:        true,
		Collapse:         true,
	}
}

func (o Options) withDefaults() Options {
	if o.MaxRandomBatches == 0 {
		o.MaxRandomBatches = 48
	}
	if o.MinBatchYield == 0 {
		o.MinBatchYield = 3
	}
	if o.TargetCoverage == 0 {
		o.TargetCoverage = 0.99
	}
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = 24
	}
	if o.MaxTopUpFaults == 0 {
		o.MaxTopUpFaults = 1500
	}
	return o
}

// Result is the outcome of pattern generation.
type Result struct {
	// Patterns is the final LOC pattern set.
	Patterns *sim.PatternSet
	// Total and Detected count the uncollapsed TDF list.
	Total, Detected int
	// RandomPatterns and DeterministicPatterns split the pattern count by
	// generation phase.
	RandomPatterns, DeterministicPatterns int
}

// Coverage returns detected/total fault coverage.
func (r *Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// Generate produces a TDF pattern set for the design.
func Generate(n *netlist.Netlist, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	s, err := sim.New(n)
	if err != nil {
		return nil, fmt.Errorf("atpg: %w", err)
	}
	eng := faultsim.NewEngine(s)
	var faults []faultsim.Fault
	if opt.Collapse {
		faults, _ = faultsim.Collapse(n)
	} else {
		faults = faultsim.AllFaults(n)
	}
	detected := make([]bool, len(faults))
	numDet := 0

	res := &Result{Total: len(faults)}
	var kept *sim.PatternSet

	// Random phase with fault dropping.
	for batch := 0; batch < opt.MaxRandomBatches; batch++ {
		if float64(numDet) >= opt.TargetCoverage*float64(len(faults)) {
			break
		}
		ps := sim.RandomPatterns(n, 64, opt.Seed+int64(batch)*7919)
		simRes := s.Run(ps)
		newDet := 0
		for i, f := range faults {
			if detected[i] {
				continue
			}
			if eng.Detects(simRes, f) {
				detected[i] = true
				numDet++
				newDet++
			}
		}
		if newDet > 0 {
			if kept == nil {
				kept = ps
			} else {
				kept = kept.Append(ps)
			}
			res.RandomPatterns += ps.N
		}
		if newDet < opt.MinBatchYield && batch > 0 {
			break
		}
	}

	// Deterministic top-up with PODEM and fault dropping.
	if !opt.SkipTopUp && float64(numDet) < opt.TargetCoverage*float64(len(faults)) {
		gen := newPodem(n, opt.MaxBacktracks)
		var pending []*sim.PatternSet
		tried, consecutiveFails := 0, 0
		for i, f := range faults {
			if detected[i] {
				continue
			}
			if tried >= opt.MaxTopUpFaults || consecutiveFails >= 120 {
				break // the remaining list is dominated by untestable faults
			}
			if float64(numDet) >= opt.TargetCoverage*float64(len(faults)) {
				break
			}
			tried++
			ps, ok := gen.generate(f)
			if !ok {
				consecutiveFails++
				continue
			}
			consecutiveFails = 0
			pending = append(pending, ps)
			// Fault-simulate the new pattern against all remaining faults
			// in 64-pattern batches to amortize the simulation cost.
			if len(pending) == 64 {
				numDet += dropBatch(s, eng, faults, detected, pending)
				kept, res.DeterministicPatterns = appendPending(kept, pending, res.DeterministicPatterns)
				pending = nil
			} else {
				// Cheap immediate drop of just this fault (it is detected
				// by construction, but verify via simulation for safety).
				single := s.Run(ps)
				if eng.Detects(single, f) {
					detected[i] = true
					numDet++
				}
			}
		}
		if len(pending) > 0 {
			numDet += dropBatch(s, eng, faults, detected, pending)
			kept, res.DeterministicPatterns = appendPending(kept, pending, res.DeterministicPatterns)
		}
	}

	if kept == nil {
		kept = sim.NewPatternSet(n, 0)
	}
	res.Patterns = kept
	res.Detected = numDet
	return res, nil
}

// dropBatch merges single-pattern sets, simulates them, and drops every
// remaining fault they detect. Returns the number of new detections.
func dropBatch(s *sim.Simulator, eng *faultsim.Engine, faults []faultsim.Fault, detected []bool, pending []*sim.PatternSet) int {
	merged := pending[0]
	for _, ps := range pending[1:] {
		merged = merged.Append(ps)
	}
	simRes := s.Run(merged)
	nd := 0
	for i, f := range faults {
		if detected[i] {
			continue
		}
		if eng.Detects(simRes, f) {
			detected[i] = true
			nd++
		}
	}
	return nd
}

func appendPending(kept *sim.PatternSet, pending []*sim.PatternSet, count int) (*sim.PatternSet, int) {
	for _, ps := range pending {
		if kept == nil {
			kept = ps
		} else {
			kept = kept.Append(ps)
		}
		count += ps.N
	}
	return kept, count
}
