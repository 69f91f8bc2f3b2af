package hgraph

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/noise"
	"repro/internal/scan"
	"repro/internal/sim"
)

// votesPerResponse is the reference vote counter: one BFS over the fan-in
// cones of the failing observation's Topnodes per failing (pattern, obs)
// response, one vote for each node that transitions under the pattern.
func votesPerResponse(g *Graph, log *failurelog.Log, res *sim.Result) (count []int32, responses int) {
	count = make([]int32, g.NumNodes)
	for _, f := range log.Fails {
		responses++
		seen := make([]bool, g.NumNodes)
		var queue []int32
		for _, obsGate := range g.arch.ObsGates(int(f.Obs), log.Compacted) {
			if top := g.InNode[obsGate][0]; !seen[top] {
				seen[top] = true
				queue = append(queue, top)
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if g.nodeTransitions(res, v, int(f.Pattern)) {
				count[v]++
			}
			for _, u := range g.Fanin[v] {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return count, responses
}

// backtraceCorpus returns seeded failure logs under the good-machine
// result res in one observation mode: single- and multi-fault injections,
// each also through the noise model, cut at half its last pattern, with
// its fails shuffled, and with some fails listed two or three times.
func backtraceCorpus(f *fixture, res *sim.Result, compacted bool) map[string]*failurelog.Log {
	rng := rand.New(rand.NewSource(71))
	faults := faultsim.AllFaults(f.g.Netlist())
	var base []*failurelog.Log
	for len(base) < 12 {
		fs := []faultsim.Fault{faults[rng.Intn(len(faults))]}
		if len(base) >= 6 {
			fs = append(fs, faults[rng.Intn(len(faults))], faults[rng.Intn(len(faults))])
		}
		diff := f.eng.Diff(res, fs)
		log := &failurelog.Log{
			Design:    f.g.Netlist().Name,
			Compacted: compacted,
			Fails:     f.arch.FailuresFromDiff(diff, res.N, compacted),
		}
		if !log.Empty() {
			base = append(base, log)
		}
	}
	model := noise.ModelAt(0.6, 73)
	logs := map[string]*failurelog.Log{}
	for i, log := range base {
		name := fmt.Sprintf("log%d", i)
		logs[name] = log
		logs[name+"/noise"] = model.Apply(log, uint64(i), res.N, f.arch.NumObs(compacted))
		cut := &failurelog.Log{Design: log.Design, Compacted: compacted, Truncated: true}
		shuffled := &failurelog.Log{Design: log.Design, Compacted: compacted}
		dup := &failurelog.Log{Design: log.Design, Compacted: compacted}
		for _, fl := range log.Fails {
			if fl.Pattern <= log.LastPattern()/2 {
				cut.Fails = append(cut.Fails, fl)
			}
			for k := rng.Intn(3); k >= 0; k-- {
				dup.Fails = append(dup.Fails, fl)
			}
		}
		shuffled.Fails = append([]scan.Failure(nil), log.Fails...)
		rng.Shuffle(len(shuffled.Fails), func(i, j int) {
			shuffled.Fails[i], shuffled.Fails[j] = shuffled.Fails[j], shuffled.Fails[i]
		})
		logs[name+"/cut"] = cut
		logs[name+"/shuffled"] = shuffled
		logs[name+"/dup"] = dup
	}
	return logs
}

// TestBacktraceMatchesPerResponseWalk checks that walking each failing
// observation's cone once reproduces the per-response walk's vote counts,
// picked nodes and subgraph, uncompacted and under EDT. Random patterns
// pad the ATPG set to three words with a partial tail.
func TestBacktraceMatchesPerResponseWalk(t *testing.T) {
	f := getFixture(t)
	ps := f.ps.Append(sim.RandomPatterns(f.g.Netlist(), 150-f.ps.N, 79))
	res := f.s.Run(ps)
	for _, compacted := range []bool{false, true} {
		wide := 0
		for name, log := range backtraceCorpus(f, res, compacted) {
			log, _ = log.Sanitized(res.N, f.arch.NumObs(compacted))
			if log.Empty() {
				continue
			}
			if log.LastPattern() >= 128 {
				wide++
			}
			count, err := f.g.votes(context.Background(), log, res)
			if err != nil {
				t.Fatal(err)
			}
			wantCount, responses := votesPerResponse(f.g, log, res)
			for v := range count {
				if count[v] != wantCount[v] {
					t.Fatalf("compacted=%v log %s: node %d has %d votes, want %d", compacted, name, v, count[v], wantCount[v])
				}
			}
			got, err := f.g.BacktraceCtx(context.Background(), log, res)
			if err != nil {
				t.Fatal(err)
			}
			if want := f.g.subgraphFromVotes(wantCount, responses); !reflect.DeepEqual(got, want) {
				t.Fatalf("compacted=%v log %s: subgraph differs (%d nodes, want %d)", compacted, name, got.NumNodes(), want.NumNodes())
			}
		}
		if wide == 0 {
			t.Fatalf("compacted=%v: no log fails in the third pattern word; corpus too weak", compacted)
		}
	}
}
