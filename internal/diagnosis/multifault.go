package diagnosis

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// InjectLog simulates the given fault set as a defective chip and returns
// the failure log a tester would record, in the requested observation
// mode. This is the paper's data-generation flow (Fig. 4): inject TDFs,
// run logic simulation with the TDF patterns, collect erroneous responses.
func (d *Engine) InjectLog(faults []faultsim.Fault, compacted bool) *failurelog.Log {
	diff := d.fsim.Diff(d.res, faults)
	return &failurelog.Log{
		Design:    d.arch.Netlist().Name,
		Compacted: compacted,
		Fails:     d.arch.FailuresFromDiff(diff, d.ps.N, compacted),
	}
}

// DiagnoseMulti produces a report for logs that may contain several
// simultaneous TDFs (the paper's Section VII-A scenario: 2–5 systematic
// defects in one tier). Candidate extraction relaxes the intersection
// requirement — no single fault explains every response — and a greedy
// set-cover pass selects a small candidate group that jointly explains the
// log, followed by near-tie candidates up to the report cap.
func (d *Engine) DiagnoseMulti(log *failurelog.Log) *Report {
	rep, _ := d.DiagnoseMultiCtx(context.Background(), log)
	return rep
}

// DiagnoseMultiCtx is DiagnoseMulti with cooperative cancellation: the
// context is checked before each candidate fault simulation and each greedy
// cover round, so an expired deadline stops the (much larger) multi-fault
// candidate sweep promptly. On cancellation it returns a nil report and the
// context's error. Safe for concurrent use: every call runs on a pooled
// fork.
func (d *Engine) DiagnoseMultiCtx(ctx context.Context, log *failurelog.Log) (*Report, error) {
	w, err := d.forks.get(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("diagnosis: multi: %w", err)
	}
	defer d.forks.put(w)
	return w.diagnoseMulti(ctx, log)
}

func (d *Engine) diagnoseMulti(ctx context.Context, log *failurelog.Log) (*Report, error) {
	rep := &Report{Design: log.Design, Compacted: log.Compacted}
	log = d.sanitize(log)
	if log.Empty() {
		return rep, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("diagnosis: multi: %w", err)
	}
	count, _ := d.suspects(log)

	// Multi-fault extraction: a defect only needs to explain a fraction of
	// the responses. Take every site voted by at least 15% of responses,
	// falling back to the best-voted sites.
	n := d.arch.Netlist()
	need := int32(float64(len(log.Fails)) * 0.15)
	if need < 1 {
		need = 1
	}
	var cands []faultsim.Fault
	for lvl := 0; lvl < 2 && len(cands) == 0; lvl++ {
		for id, c := range count {
			if c < need {
				continue
			}
			g := n.Gates[id]
			if g.Type == netlist.Input || g.Type == netlist.Output {
				continue
			}
			cands = append(cands,
				faultsim.Fault{Gate: id, Pin: faultsim.OutputPin, Pol: faultsim.SlowToRise},
				faultsim.Fault{Gate: id, Pin: faultsim.OutputPin, Pol: faultsim.SlowToFall})
		}
		need = 1
	}

	observed := make(map[int64]bool, len(log.Fails))
	for _, f := range log.Fails {
		observed[failureKey(f)] = true
	}
	// Score all candidates and keep their predicted-failure sets for the
	// cover pass.
	type scoredCand struct {
		Candidate
		pred []scan.Failure
	}
	scored := make([]scoredCand, 0, len(cands))
	for _, cand := range cands {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("diagnosis: multi: %w", err)
		}
		diff := d.fsim.Diff(d.res, []faultsim.Fault{cand})
		pred := d.arch.FailuresFromDiffUnsorted(diff, d.ps.N, log.Compacted)
		c := Candidate{Fault: cand}
		for _, p := range pred {
			if observed[failureKey(p)] {
				c.TFSF++
			} else {
				c.TPSF++
			}
		}
		c.TFSP = len(observed) - c.TFSF
		c.Score = float64(c.TFSF) - d.opt.TPSFWeight*float64(c.TPSF)
		if c.TFSF == 0 {
			continue
		}
		scored = append(scored, scoredCand{Candidate: c, pred: pred})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].Fault.Gate < scored[j].Fault.Gate
	})

	// Greedy cover: repeatedly take the candidate explaining the most
	// still-uncovered failures.
	uncovered := make(map[int64]bool, len(observed))
	for k := range observed {
		uncovered[k] = true
	}
	chosen := make([]bool, len(scored))
	var picks []int
	for len(uncovered) > 0 && len(picks) < 8 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("diagnosis: multi: %w", err)
		}
		bestIdx, bestGain := -1, 0
		for i := range scored {
			if chosen[i] {
				continue
			}
			gain := 0
			for _, p := range scored[i].pred {
				if uncovered[failureKey(p)] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen[bestIdx] = true
		picks = append(picks, bestIdx)
		for _, p := range scored[bestIdx].pred {
			delete(uncovered, failureKey(p))
		}
	}
	for _, i := range picks {
		rep.Candidates = append(rep.Candidates, scored[i].Candidate)
	}
	// Fill with near-tie candidates for realistic resolution.
	for i := range scored {
		if len(rep.Candidates) >= d.opt.MaxCandidates {
			break
		}
		if chosen[i] {
			continue
		}
		if len(picks) > 0 && scored[i].Score < scored[picks[0]].Score*0.5 {
			break
		}
		rep.Candidates = append(rep.Candidates, scored[i].Candidate)
	}
	return rep, nil
}
