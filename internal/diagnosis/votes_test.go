package diagnosis

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/failurelog"
	"repro/internal/scan"
)

// suspectsPerResponse is the reference vote counter: one walk of the
// failing observation's capture-gate cones per failing (pattern, obs)
// response, one vote for each cone gate that transitions under the
// pattern.
func suspectsPerResponse(d *Engine, log *failurelog.Log) (count []int32, responses int) {
	n := d.arch.Netlist()
	count = make([]int32, len(n.Gates))
	for _, f := range log.Fails {
		responses++
		voted := make([]bool, len(n.Gates))
		for _, obsGate := range d.arch.ObsGates(int(f.Obs), log.Compacted) {
			for g, in := range n.FaninCone(d.arch.CaptureGate(obsGate)) {
				if in && !voted[g] && d.res.HasTransition(g, int(f.Pattern)) {
					voted[g] = true
					count[g]++
				}
			}
		}
	}
	return count, responses
}

// votingCorpus extends the scoring corpus with every log's fails shuffled
// and with some fails listed two or three times.
func votingCorpus(t *testing.T, fx *fixture, compacted bool) map[string]*failurelog.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	base := scoringCorpus(t, fx, compacted)
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	logs := map[string]*failurelog.Log{}
	for _, name := range names {
		log := base[name]
		logs[name] = log
		shuffled := *log
		shuffled.Fails = append([]scan.Failure(nil), log.Fails...)
		rng.Shuffle(len(shuffled.Fails), func(i, j int) {
			shuffled.Fails[i], shuffled.Fails[j] = shuffled.Fails[j], shuffled.Fails[i]
		})
		logs[name+"/shuffled"] = &shuffled
		dup := *log
		dup.Fails = nil
		for _, f := range log.Fails {
			for k := rng.Intn(3); k >= 0; k-- {
				dup.Fails = append(dup.Fails, f)
			}
		}
		logs[name+"/dup"] = &dup
	}
	return logs
}

// TestSuspectsMatchPerResponseWalk checks that voting once per failing
// observation reproduces the per-response walk's vote counts, response
// count and extracted candidates, uncompacted and under EDT.
func TestSuspectsMatchPerResponseWalk(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	for _, compacted := range []bool{false, true} {
		grouped := 0
		for name, log := range votingCorpus(t, fx, compacted) {
			log = fx.eng.sanitize(log)
			if log.Empty() {
				continue
			}
			count, responses := fx.eng.suspects(log)
			wantCount, wantResponses := suspectsPerResponse(fx.eng, log)
			if responses != wantResponses || !reflect.DeepEqual(count, wantCount) {
				for g := range count {
					if count[g] != wantCount[g] {
						t.Fatalf("compacted=%v log %s: gate %d has %d votes, want %d (responses %d, want %d)",
							compacted, name, g, count[g], wantCount[g], responses, wantResponses)
					}
				}
				t.Fatalf("compacted=%v log %s: responses %d, want %d", compacted, name, responses, wantResponses)
			}
			got := fx.eng.extractCandidates(log, count, responses)
			want := fx.eng.extractCandidates(log, wantCount, wantResponses)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("compacted=%v log %s: candidates differ", compacted, name)
			}
			if len(log.ByObservation(fx.eng.ps.Words())) < len(log.Fails) {
				grouped++
			}
		}
		if grouped == 0 {
			t.Fatalf("compacted=%v: no log shares an observation between fails; corpus too weak", compacted)
		}
	}
}
