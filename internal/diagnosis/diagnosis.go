// Package diagnosis implements effect-cause transition-delay-fault
// diagnosis, standing in for the commercial ATPG diagnosis tool in the
// paper's flow. Given the netlist, the applied LOC pattern set, and a
// tester failure log, it:
//
//  1. extracts candidate fault sites by back-tracing every failing
//     response through the fan-in cones of the failing observation points
//     and keeping sites that transition under the failing patterns
//     (critical-path tracing style candidate extraction);
//  2. fault-simulates the candidates, one propagation per fanout-free
//     region stem shared by all candidates inside that region, in parallel
//     on pooled engine forks, and scores each by how well its predicted
//     failures match the tester's (TFSF/TFSP/TPSF counts);
//  3. emits a ranked report whose quality is measured the same way the
//     paper measures commercial reports: diagnostic resolution (report
//     length), accuracy (ground truth present), and first-hit index.
//
// Under response compaction the failing observation is an XOR channel
// rather than a scan cell, which widens the candidate cones and degrades
// resolution — the same effect the paper reports in Tables VII/VIII.
package diagnosis

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Options tunes report construction.
type Options struct {
	// MaxCandidates caps the report length. Default 64.
	MaxCandidates int
	// ScoreSlack keeps candidates scoring within this fraction of the best
	// score. Default 0.7 (commercial reports list plausible candidates
	// well below the best match).
	ScoreSlack float64
	// TFSPWeight and TPSFWeight are the mismatch penalties. Defaults 0.35
	// and 0.15, ranking primarily by explained failures the way commercial
	// match-based diagnosis does.
	TFSPWeight, TPSFWeight float64
}

func (o Options) withDefaults() Options {
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 64
	}
	if o.ScoreSlack == 0 {
		o.ScoreSlack = 0.7
	}
	if o.TFSPWeight == 0 {
		o.TFSPWeight = 0.35
	}
	if o.TPSFWeight == 0 {
		o.TPSFWeight = 0.15
	}
	return o
}

// Candidate is one ranked suspect in a diagnosis report.
type Candidate struct {
	// Fault is the suspected TDF (output-pin granularity).
	Fault faultsim.Fault
	// TFSF counts tester-fail/sim-fail matches; TFSP tester failures the
	// candidate cannot explain; TPSF simulated failures the tester did not
	// see.
	TFSF, TFSP, TPSF int
	// Score is the ranking value.
	Score float64
}

// Report is a ranked candidate list for one failure log.
type Report struct {
	Design     string
	Compacted  bool
	Candidates []Candidate
}

// Resolution returns the diagnostic resolution (number of candidates).
func (r *Report) Resolution() int { return len(r.Candidates) }

// FirstHit returns the 1-based index of the first candidate whose site gate
// and polarity match any of the ground-truth faults, or 0 if none match.
func (r *Report) FirstHit(n *netlist.Netlist, truths []faultsim.Fault) int {
	for i, c := range r.Candidates {
		for _, truth := range truths {
			if Matches(n, c.Fault, truth) {
				return i + 1
			}
		}
	}
	return 0
}

// Accurate reports whether every ground-truth fault location appears in
// the report (the paper's accuracy criterion; for single faults this is
// simply "the defect is in the list").
func (r *Report) Accurate(n *netlist.Netlist, truths []faultsim.Fault) bool {
	for _, truth := range truths {
		hit := false
		for _, c := range r.Candidates {
			if Matches(n, c.Fault, truth) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return len(truths) > 0
}

// Matches reports whether a candidate pinpoints the ground-truth defect
// location: same value-carrying site gate and same polarity.
func Matches(n *netlist.Netlist, cand, truth faultsim.Fault) bool {
	return cand.SiteGate(n) == truth.SiteGate(n) && cand.Pol == truth.Pol
}

// Engine diagnoses failure logs for one (design, pattern set) pair. The
// good-machine simulation is computed once and reused across logs.
type Engine struct {
	sim  *sim.Simulator
	fsim *faultsim.Engine
	arch *scan.Arch
	ps   *sim.PatternSet
	res  *sim.Result
	opt  Options

	// obsIndex maps a faultsim observation index (Netlist.ObservationPoints
	// order) to the scan observation index, uncompacted [0] and EDT [1].
	obsIndex [2][]int32

	// forks hands each Diagnose call a fork of its own, so concurrent calls
	// on one engine never share fault-simulation scratch, and lends idle
	// forks to a call's parallel scoring. Shared by forks.
	forks *forkPool

	// Fork-private scoring scratch. A stem group's lanes and EDT fold:
	lanes   []uint64 // [words]: union of the members' lanes, then each member's
	fold    []uint64 // [obs*words+w]: XOR of the cell diffs behind obs
	folded  []bool   // obs has a partial fold in this group
	touched []int32  // folded observations, in first-touch order
	// A scoring stage's stem groups, on the call's own fork:
	keys    []int64 // stem<<32 | candidate index, sorted
	members []int32 // candidate indices, grouped by stem
	bounds  []int32 // group g is members[bounds[g]:bounds[g+1]]
	props   []bool  // by group: the group propagated its stem
}

// NewEngine runs the good-machine simulation.
func NewEngine(arch *scan.Arch, ps *sim.PatternSet, opt Options) (*Engine, error) {
	s, err := sim.New(arch.Netlist())
	if err != nil {
		return nil, err
	}
	n := arch.Netlist()
	var obsIndex [2][]int32
	for mode, compacted := range []bool{false, true} {
		idx := make([]int32, 0, len(n.POs)+len(n.FFs))
		for i := range n.POs {
			idx = append(idx, int32(arch.ObsOfPO(i)))
		}
		for i := range n.FFs {
			idx = append(idx, int32(arch.ObsOfFF(i, compacted)))
		}
		obsIndex[mode] = idx
	}
	return &Engine{
		sim:      s,
		fsim:     faultsim.NewEngine(s),
		arch:     arch,
		ps:       ps,
		res:      s.Run(ps),
		opt:      opt.withDefaults(),
		obsIndex: obsIndex,
		forks:    &forkPool{},
	}, nil
}

// Fork returns an engine that shares this engine's immutable state (the
// good-machine simulation, patterns, and scan architecture) but carries
// private fault-simulation scratch, so forks can inject and diagnose logs
// concurrently from separate goroutines. Reports produced by a fork are
// bitwise-identical to the parent's.
func (d *Engine) Fork() *Engine {
	return &Engine{
		sim:      d.sim,
		fsim:     d.fsim.Fork(),
		arch:     d.arch,
		ps:       d.ps,
		res:      d.res,
		opt:      d.opt,
		obsIndex: d.obsIndex,
		forks:    d.forks,
	}
}

// Result exposes the cached good-machine simulation.
func (d *Engine) Result() *sim.Result { return d.res }

// Arch exposes the scan architecture.
func (d *Engine) Arch() *scan.Arch { return d.arch }

// Detects reports whether the engine's pattern set detects fault f (see
// faultsim.Engine.Detects). Safe for concurrent use: it runs on a pooled
// fork.
func (d *Engine) Detects(f faultsim.Fault) bool {
	w, _ := d.forks.get(context.Background(), d) // fails only when ctx ends
	defer d.forks.put(w)
	return w.fsim.Detects(w.res, f)
}

// suspects computes the per-response suspect counts: for every failing
// (pattern, obs) response, each gate in the fan-in cone of the failing
// observation that transitions under the pattern gets one vote. The
// responses of one observation share its cone, so the cone is walked once
// per failing observation, and each gate gets one vote per failing pattern
// it transitions under, counted word-parallel. The cone is the union of
// the observation's capture-gate cones: a source gate expands only when it
// is one of those capture gates, as in netlist.FaninCone.
func (d *Engine) suspects(log *failurelog.Log) (count []int32, responses int) {
	n := d.arch.Netlist()
	count = make([]int32, len(n.Gates))
	mark := make([]int32, len(n.Gates)) // observation stamp: visited
	root := make([]int32, len(n.Gates)) // observation stamp: capture gate
	var stack []int32
	for i, of := range log.ByObservation(d.ps.Words()) {
		st := int32(i + 1)
		for _, obsGate := range d.arch.ObsGates(int(of.Obs), log.Compacted) {
			c := d.arch.CaptureGate(obsGate)
			root[c] = st
			if mark[c] != st {
				mark[c] = st
				stack = append(stack, int32(c))
			}
		}
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count[g] += int32(d.res.CountTransitions(int(g), of.Mask))
			gate := n.Gates[g]
			if gate.Type.IsSource() && root[g] != st {
				continue // cone stops at PIs and flop outputs
			}
			for _, f := range gate.Fanin {
				if mark[f] != st {
					mark[f] = st
					stack = append(stack, int32(f))
				}
			}
		}
	}
	return count, len(log.Fails)
}

// maxScoredCandidates bounds the fault-simulation budget per log.
const maxScoredCandidates = 240

// extractCandidates turns suspect votes into a vote-ranked candidate pool.
// Commercial tools keep plausible candidates that explain many (not
// necessarily all) failing responses, so every site voted by at least 30%
// of the responses enters the pool, best-voted first, up to the scoring
// budget. Polarity follows the transitions the site makes under failing
// patterns.
func (d *Engine) extractCandidates(log *failurelog.Log, count []int32, responses int) []faultsim.Fault {
	n := d.arch.Netlist()
	fails := log.FailsByPattern()
	type voted struct {
		id    int
		votes int32
	}
	var pool []voted
	need := int32(0.3 * float64(responses))
	if need < 1 {
		need = 1
	}
	for id, c := range count {
		if c < need {
			continue
		}
		g := n.Gates[id]
		if g.Type == netlist.Input || g.Type == netlist.Output {
			continue
		}
		pool = append(pool, voted{id, c})
	}
	if len(pool) == 0 {
		// Aliasing or reconvergence starved the pool: fall back to any
		// voted site.
		for id, c := range count {
			g := n.Gates[id]
			if c > 0 && g.Type != netlist.Input && g.Type != netlist.Output {
				pool = append(pool, voted{id, c})
			}
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].votes != pool[j].votes {
			return pool[i].votes > pool[j].votes
		}
		return pool[i].id < pool[j].id
	})
	if len(pool) > maxScoredCandidates {
		pool = pool[:maxScoredCandidates]
	}
	var cands []faultsim.Fault
	for _, v := range pool {
		rise, fall := false, false
		for p := range fails {
			if !d.res.HasTransition(v.id, int(p)) {
				continue
			}
			if !sim.GetBit(d.res.V1[v.id], int(p)) {
				rise = true
			} else {
				fall = true
			}
		}
		if rise {
			cands = append(cands, faultsim.Fault{Gate: v.id, Pin: faultsim.OutputPin, Pol: faultsim.SlowToRise})
		}
		if fall {
			cands = append(cands, faultsim.Fault{Gate: v.id, Pin: faultsim.OutputPin, Pol: faultsim.SlowToFall})
		}
	}
	return cands
}

// branchCandidates expands a net-level candidate into its per-branch
// input-pin faults. The defect may sit on a single branch, and a whole-net
// fault can alias through reconvergence where the branch fault does not.
func (d *Engine) branchCandidates(c faultsim.Fault) []faultsim.Fault {
	n := d.arch.Netlist()
	g := n.Gates[c.Gate]
	if c.Pin != faultsim.OutputPin || len(g.Fanout) < 2 {
		return nil
	}
	var out []faultsim.Fault
	for _, s := range g.Fanout {
		for pin, src := range n.Gates[s].Fanin {
			if src == c.Gate {
				out = append(out, faultsim.Fault{Gate: s, Pin: pin, Pol: c.Pol})
			}
		}
	}
	return out
}

// failureKey packs a failing bit for set comparison.
func failureKey(f scan.Failure) int64 { return int64(f.Pattern)<<32 | int64(uint32(f.Obs)) }

// faultHash is a deterministic mixing function used only to break ranking
// ties without favoring any particular member of an equivalence class.
func faultHash(f faultsim.Fault) uint64 {
	h := uint64(f.Gate)*0x9e3779b97f4a7c15 + uint64(f.Pin+2)*0xbf58476d1ce4e5b9 + uint64(f.Pol)
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// sanitize drops fails the engine's pattern set and scan architecture
// cannot address (out-of-range pattern or observation indices). Tester
// logs arrive from outside the pipeline and may disagree with the
// diagnosis setup; indexing simulation results by an unchecked value would
// panic deep inside the simulator.
func (d *Engine) sanitize(log *failurelog.Log) *failurelog.Log {
	l, _ := log.Sanitized(d.ps.N, d.arch.NumObs(log.Compacted))
	return l
}

// Diagnose produces a ranked single-fault diagnosis report for the log. It
// never panics on degenerate input: empty logs, or logs whose every fail
// is out of range for this engine, yield an empty report.
func (d *Engine) Diagnose(log *failurelog.Log) *Report {
	rep, _ := d.DiagnoseCtx(context.Background(), log)
	return rep
}

// DiagnoseCtx is Diagnose with cooperative cancellation: the context is
// checked before every stem group's fault simulation (the dominant per-log
// cost), so a diagnosis whose deadline expires returns within one group of
// the cancellation instead of scoring the remaining pool. On cancellation
// it returns a nil report and the context's error. Safe for concurrent
// use: extraction reads only immutable state, and scoring runs on pooled
// forks.
func (d *Engine) DiagnoseCtx(ctx context.Context, log *failurelog.Log) (*Report, error) {
	log = d.sanitize(log)
	if log.Empty() {
		return &Report{Design: log.Design, Compacted: log.Compacted}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("diagnosis: %w", err)
	}
	span := obs.Start(ctx, "diagnosis.extract")
	count, responses := d.suspects(log)
	cands := d.extractCandidates(log, count, responses)
	span.End()
	obs.Add(ctx, "m3d_diag_candidates_extracted_total", int64(len(cands)))
	w, err := d.forks.get(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("diagnosis: %w", err)
	}
	defer d.forks.put(w)
	return w.report(ctx, log, cands)
}

// report scores a sanitized log's candidate pool, refines the strongest
// candidates to pin granularity, and ranks the result into a report: every
// stage of a diagnosis after candidate extraction. Each scoring stage runs
// on d and the helper forks it can borrow for that stage; results are
// index-ordered and filtered in order, so the report is the one a serial
// loop over d would build.
func (d *Engine) report(ctx context.Context, log *failurelog.Log, cands []faultsim.Fault) (*Report, error) {
	observed := d.NewObserved(log)

	// Stage 1: score net-level candidates.
	span := obs.Start(ctx, "diagnosis.score")
	scored, props, err := d.scoreAll(ctx, cands, observed, nil)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("diagnosis: %w", err)
	}
	obs.Add(ctx, "m3d_diag_candidates_scored_total", int64(len(cands)))
	obs.Add(ctx, "m3d_diag_propagations_total", int64(props))
	RankCandidates(scored)
	// Stage 2: refine the strongest net-level candidates to pin
	// granularity (branch faults dodge reconvergent aliasing). The branch
	// faults are flattened in rank order.
	span = obs.Start(ctx, "diagnosis.refine")
	var branches []faultsim.Fault
	for _, c := range scored[:min(len(scored), RefineTop)] {
		branches = append(branches, d.branchCandidates(c.Fault)...)
	}
	scored, props, err = d.scoreAll(ctx, branches, observed, scored)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("diagnosis: %w", err)
	}
	obs.Add(ctx, "m3d_diag_propagations_total", int64(props))
	RankCandidates(scored)
	rep := &Report{Design: log.Design, Compacted: log.Compacted}
	d.fillReport(rep, scored)
	return rep, nil
}

// scoreAll scores cands one stem group at a time (see scoreGroup) on d
// plus the helper forks it can borrow, one worker each, returns the
// helpers, and appends the candidates that explain at least one failure to
// dst in candidate order. It also returns how many stems it propagated.
// The context is checked before every group.
func (d *Engine) scoreAll(ctx context.Context, cands []faultsim.Fault, o *Observed, dst []Candidate) ([]Candidate, int, error) {
	members, bounds := d.groupByStem(cands)
	groups := len(bounds) - 1
	d.props = slices.Grow(d.props[:0], groups)[:groups]
	scored, propagated := make([]Candidate, len(cands)), d.props
	helpers := d.forks.borrow(d)
	defer d.forks.giveBack(helpers)
	err := par.ForEachWorkerCtx(ctx, 1+len(helpers), groups, func(w, g int) {
		e := d
		if w > 0 {
			e = helpers[w-1]
		}
		propagated[g] = e.scoreGroup(cands, members[bounds[g]:bounds[g+1]], o, scored)
	})
	if err != nil {
		return nil, 0, err
	}
	for _, c := range scored {
		if c.TFSF > 0 {
			dst = append(dst, c)
		}
	}
	props := 0
	for _, p := range propagated {
		if p {
			props++
		}
	}
	return dst, props, nil
}

// groupByStem groups the candidate indices by the stem of their fault's
// fanout-free region, returning the indices and the group bounds in them
// (group g is members[bounds[g]:bounds[g+1]], in candidate order). An
// observation-local candidate is a group of its own. It reuses d's
// scratch.
func (d *Engine) groupByStem(cands []faultsim.Fault) (members, bounds []int32) {
	gates := len(d.arch.Netlist().Gates)
	keys := d.keys[:0]
	for i, f := range cands {
		stem := d.fsim.Stem(f)
		if stem < 0 {
			stem = gates + i
		}
		keys = append(keys, int64(stem)<<32|int64(i))
	}
	slices.Sort(keys)
	members, bounds = d.members[:0], d.bounds[:0]
	for k, key := range keys {
		if k == 0 || key>>32 != keys[k-1]>>32 {
			bounds = append(bounds, int32(k))
		}
		members = append(members, int32(key))
	}
	bounds = append(bounds, int32(len(keys)))
	d.keys, d.members, d.bounds = keys, members, bounds
	return members, bounds
}

// RefineTop is how many of the strongest net-level candidates stage 2
// expands to pin-granularity branch faults.
const RefineTop = 40

// RankCandidates sorts scored candidates into report order: score
// descending, with ties (equivalence classes: buffer chains, MIVs,
// indistinguishable reconvergent sites) ordered by a deterministic hash —
// a real tool has no oracle to put the true defect first within a class.
func RankCandidates(scored []Candidate) {
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		hi, hj := faultHash(scored[i].Fault), faultHash(scored[j].Fault)
		if hi != hj {
			return hi < hj
		}
		return scored[i].Fault.Gate < scored[j].Fault.Gate
	})
}

// fillReport applies the inclusion policy to the ranked candidate list.
// Inclusion follows match strength: any candidate explaining a solid
// fraction of what the best candidate explains is reported, ranked by
// score. This is what gives large designs their large reports.
func (d *Engine) fillReport(rep *Report, scored []Candidate) {
	if len(scored) == 0 {
		return
	}
	bestTFSF := 0
	for _, c := range scored {
		if c.TFSF > bestTFSF {
			bestTFSF = c.TFSF
		}
	}
	floor := int(float64(bestTFSF) * (1 - d.opt.ScoreSlack))
	for _, c := range scored {
		if len(rep.Candidates) >= d.opt.MaxCandidates {
			break
		}
		if c.TFSF < floor {
			continue
		}
		// A plausible candidate must explain at least as much as it
		// mispredicts.
		if c.TPSF > c.TFSF {
			continue
		}
		rep.Candidates = append(rep.Candidates, c)
	}
}
