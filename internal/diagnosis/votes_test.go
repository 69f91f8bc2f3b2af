package diagnosis

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/scan"
	"repro/internal/sim"
)

// suspectsPerResponse is the reference vote counter: one walk of the
// failing observation's capture-gate cones per failing (pattern, obs)
// response, one vote for each cone gate that transitions under the
// pattern.
func suspectsPerResponse(d *Engine, log *failurelog.Log) []int32 {
	n := d.arch.Netlist()
	count := make([]int32, len(n.Gates))
	for _, f := range log.Fails {
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
	return count
}

// candidatesPerPattern is the reference polarity rule: with the log's
// failing observations grouped by pattern in a map, a site is a
// slow-to-rise candidate when it rises under one of those patterns and a
// slow-to-fall candidate when it falls under one.
func candidatesPerPattern(d *Engine, log *failurelog.Log, sites []int) []faultsim.Fault {
	fails := make(map[int32][]int32)
	for _, f := range log.Fails {
		fails[f.Pattern] = append(fails[f.Pattern], f.Obs)
	}
	var cands []faultsim.Fault
	for _, id := range sites {
		rise, fall := false, false
		for p := range fails {
			if !d.res.HasTransition(id, int(p)) {
				continue
			}
			if !sim.GetBit(d.res.V1[id], int(p)) {
				rise = true
			} else {
				fall = true
			}
		}
		if rise {
			cands = append(cands, faultsim.Fault{Gate: id, Pin: faultsim.OutputPin, Pol: faultsim.SlowToRise})
		}
		if fall {
			cands = append(cands, faultsim.Fault{Gate: id, Pin: faultsim.OutputPin, Pol: faultsim.SlowToFall})
		}
	}
	return cands
}

// votingCorpus extends the scoring corpus with every log's fails shuffled
// and with some fails listed two or three times, and adds one log holding
// every corpus log's fails, whose failing observations and duplicate
// layers number more than 64.
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
	all := &failurelog.Log{Design: fx.eng.arch.Netlist().Name, Compacted: compacted}
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
		all.Fails = append(all.Fails, log.Fails...)
	}
	logs["all"] = all
	return logs
}

// entries returns the number of (observation, duplicate layer) entries of
// a log's fails grouped by observation over words pattern words.
func entries(byObs []failurelog.ObsFails, words int) int {
	e := 0
	for _, of := range byObs {
		e += len(of.Mask) / words
	}
	return e
}

// sourceCapture reports whether one of the log's failing observations
// captures a PI or a flop output.
func sourceCapture(d *Engine, log *failurelog.Log) bool {
	n := d.arch.Netlist()
	for _, f := range log.Fails {
		for _, obsGate := range d.arch.ObsGates(int(f.Obs), log.Compacted) {
			if n.Gates[d.arch.CaptureGate(obsGate)].Type.IsSource() {
				return true
			}
		}
	}
	return false
}

// checkSuspects compares the sweep's votes and candidates for a
// sanitized log with the per-response and per-pattern oracles.
func checkSuspects(t *testing.T, d *Engine, log *failurelog.Log, name string) {
	t.Helper()
	count, fail := d.suspects(log)
	want := suspectsPerResponse(d, log)
	for g := range count {
		if count[g] != want[g] {
			t.Fatalf("compacted=%v log %s: gate %d has %d votes, want %d", log.Compacted, name, g, count[g], want[g])
		}
	}
	got := d.extractCandidates(count, fail, len(log.Fails))
	if ref := candidatesPerPattern(d, log, d.votedSites(want, len(log.Fails))); !reflect.DeepEqual(got, ref) {
		t.Fatalf("compacted=%v log %s: candidates %v, want %v", log.Compacted, name, got, ref)
	}
}

// TestSuspectsMatchPerResponseWalk checks that the one-sweep vote count
// reproduces the per-response walk's vote counts, and that word-parallel
// polarity reproduces the per-pattern rule's candidates, uncompacted and
// under EDT. The corpus must group fails by observation, hold a log whose
// entry sets span two words, and fail an observation whose capture gate
// is a PI or a flop output.
func TestSuspectsMatchPerResponseWalk(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	words := fx.eng.ps.Words()
	for _, compacted := range []bool{false, true} {
		grouped, wide, sourced := 0, 0, 0
		for name, log := range votingCorpus(t, fx, compacted) {
			log = fx.eng.sanitize(log)
			if log.Empty() {
				continue
			}
			checkSuspects(t, fx.eng, log, name)
			byObs := log.ByObservation(words)
			if len(byObs) < len(log.Fails) {
				grouped++
			}
			if entries(byObs, words) > 64 {
				wide++
			}
			if sourceCapture(fx.eng, log) {
				sourced++
			}
		}
		if grouped == 0 || wide == 0 || sourced == 0 {
			t.Fatalf("compacted=%v: %d logs share an observation between fails, %d have more than 64 entries, %d fail at a source capture gate; corpus too weak",
				compacted, grouped, wide, sourced)
		}
	}
}
