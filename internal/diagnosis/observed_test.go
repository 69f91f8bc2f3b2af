package diagnosis

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/noise"
)

// scoreMap is the reference scorer: expand the candidate's observation
// diffs into a predicted failure list and probe every predicted failure in
// a set keyed by (pattern, observation). When the tester's fail memory
// truncated the log, predicted failures after the last recorded pattern
// are ignored.
func scoreMap(d *Engine, cand faultsim.Fault, log *failurelog.Log) Candidate {
	log = d.sanitize(log)
	observed := make(map[int64]bool, len(log.Fails))
	for _, f := range log.Fails {
		observed[failureKey(f)] = true
	}
	horizon := int32(-1)
	if log.Truncated {
		horizon = log.LastPattern()
	}
	diff := d.fsim.Diff(d.res, []faultsim.Fault{cand})
	pred := d.arch.FailuresFromDiffUnsorted(diff, d.ps.N, log.Compacted)
	c := Candidate{Fault: cand}
	for _, p := range pred {
		if horizon >= 0 && p.Pattern > horizon {
			continue
		}
		if observed[failureKey(p)] {
			c.TFSF++
		} else {
			c.TPSF++
		}
	}
	c.TFSP = len(observed) - c.TFSF
	c.Score = float64(c.TFSF) - d.opt.TFSPWeight*float64(c.TFSP) - d.opt.TPSFWeight*float64(c.TPSF)
	return c
}

// scoringCorpus returns seeded failure logs in one observation mode:
// single- and multi-fault injections, the same logs through the noise
// model (dropped and spurious fails, window and fail-memory truncation),
// and logs truncated by hand at half their last pattern.
func scoringCorpus(t *testing.T, fx *fixture, compacted bool) map[string]*failurelog.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	logs := map[string]*failurelog.Log{}
	var base []*failurelog.Log
	for _, f := range detectableFaults(fx, compacted, 6, 43) {
		base = append(base, fx.eng.InjectLog([]faultsim.Fault{f}, compacted))
	}
	for len(base) < 10 {
		var fs []faultsim.Fault
		for k := 0; k < 2+rng.Intn(2); k++ {
			fs = append(fs, fx.faults[rng.Intn(len(fx.faults))])
		}
		if log := fx.eng.InjectLog(fs, compacted); !log.Empty() {
			base = append(base, log)
		}
	}
	numObs := fx.eng.arch.NumObs(compacted)
	model := noise.ModelAt(0.6, 47)
	for i, log := range base {
		name := fmt.Sprintf("log%d", i)
		logs[name] = log
		logs[name+"/noise"] = model.Apply(log, uint64(i), fx.eng.ps.N, numObs)
		cut := &failurelog.Log{Design: log.Design, Compacted: compacted, Truncated: true}
		for _, f := range log.Fails {
			if f.Pattern <= log.LastPattern()/2 {
				cut.Fails = append(cut.Fails, f)
			}
		}
		logs[name+"/cut"] = cut
	}
	return logs
}

// TestScoreCandidateMatchesMapScorer checks that bit-parallel scoring
// reproduces the map-keyed scorer's integer counts for every extracted
// candidate and every branch expansion, uncompacted and under EDT: one
// candidate at a time, and through the grouped scoring stage, which
// scores each list one stem group at a time and keeps, in candidate order,
// the candidates that explain a failure.
func TestScoreCandidateMatchesMapScorer(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	if fx.eng.ps.Words() < 2 {
		t.Fatalf("fixture has %d patterns; need more than one word", fx.eng.ps.N)
	}
	ctx := context.Background()
	w, err := fx.eng.forks.get(ctx, fx.eng)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.eng.forks.put(w)
	for _, compacted := range []bool{false, true} {
		scored, truncated, shared := 0, 0, 0
		for name, log := range scoringCorpus(t, fx, compacted) {
			clean := fx.eng.sanitize(log)
			if clean.Empty() {
				continue
			}
			if clean.Truncated {
				truncated++
			}
			count, fail := fx.eng.suspects(clean)
			cands := fx.eng.extractCandidates(count, fail, len(clean.Fails))
			var branches []faultsim.Fault
			for _, c := range cands {
				branches = append(branches, fx.eng.branchCandidates(c)...)
			}
			o := fx.eng.NewObserved(log)
			for stage, list := range [][]faultsim.Fault{cands, branches} {
				var want []Candidate
				for _, c := range list {
					got, ref := fx.eng.ScoreCandidate(c, o), scoreMap(fx.eng, c, log)
					if got != ref {
						t.Fatalf("compacted=%v log %s candidate %v: got %+v want %+v", compacted, name, c, got, ref)
					}
					if ref.TFSF > 0 {
						want = append(want, ref)
					}
					scored++
				}
				got, _, err := w.scoreAll(ctx, list, o, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("compacted=%v log %s stage %d: grouped stage %+v, map scorer %+v", compacted, name, stage+1, got, want)
				}
				_, bounds := w.groupByStem(list)
				shared += len(list) - (len(bounds) - 1)
			}
		}
		if scored == 0 || truncated == 0 || shared == 0 {
			t.Fatalf("compacted=%v: %d candidates, %d truncated logs, %d sharing a stem group; corpus too weak", compacted, scored, truncated, shared)
		}
		t.Logf("compacted=%v: %d candidates identical, %d sharing a stem group", compacted, scored, shared)
	}
}

// TestScoreCandidateZeroAllocs guards the scoring inner loop: once an
// engine's scratch is warm, scoring a candidate allocates nothing.
func TestScoreCandidateZeroAllocs(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	for _, compacted := range []bool{false, true} {
		faults := detectableFaults(fx, compacted, 1, 53)
		if len(faults) == 0 {
			t.Fatal("no detectable fault")
		}
		log := fx.eng.InjectLog(faults, compacted)
		eng := fx.eng.Fork()
		count, fail := eng.suspects(log)
		cands := eng.extractCandidates(count, fail, len(log.Fails))
		o := eng.NewObserved(log)
		score := func() {
			for _, c := range cands {
				eng.ScoreCandidate(c, o)
			}
		}
		score()
		if allocs := testing.AllocsPerRun(10, score); allocs != 0 {
			t.Fatalf("compacted=%v: %.1f allocs scoring %d candidates, want 0", compacted, allocs, len(cands))
		}
	}
}
