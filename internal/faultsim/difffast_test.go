package faultsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestDiffObsMatchesMultiFaultEngine checks the single-fault collector
// against the independent multi-fault engine run on the same one fault,
// and against Diff's map, for every fault in AllFaults plus the PO branch
// faults, over more than one pattern word. The circuits include a flop
// capturing another flop's output and a PO sharing a capture gate with a
// flop, so flop output-pin faults, flop data-pin and PO branch faults, and
// capture gates observed twice are all exercised.
func TestDiffObsMatchesMultiFaultEngine(t *testing.T) {
	const pats = 150
	detected := map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomCircuit(rng)
		shift := n.AddGate("", netlist.DFF)
		n.Connect(shift, n.FFs[0])
		n.AddGate("", netlist.Output, n.Gates[n.FFs[1]].Fanin[0])
		s, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		res := s.Run(sim.RandomPatterns(n, pats, seed))
		points := n.ObservationPoints()
		// AllFaults leaves out port pseudo-gates, but branch expansion in
		// diagnosis scores faults on a PO's driver branch.
		faults := AllFaults(n)
		for _, po := range n.POs {
			faults = append(faults, Fault{Gate: po, Pin: 0, Pol: SlowToRise}, Fault{Gate: po, Pin: 0, Pol: SlowToFall})
		}
		for _, f := range faults {
			want := e.diffMulti(res, []Fault{f})
			got := map[int][]uint64{}
			for _, od := range e.DiffObs(res, f) {
				if points[od.Obs] != od.Gate {
					t.Fatalf("seed %d fault %v: obs %d is gate %d, reported %d", seed, f, od.Obs, points[od.Obs], od.Gate)
				}
				if _, dup := got[od.Gate]; dup {
					t.Fatalf("seed %d fault %v: gate %d reported twice", seed, f, od.Gate)
				}
				got[od.Gate] = append([]uint64(nil), od.Diff...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d fault %v: DiffObs %v, multi-fault engine %v", seed, f, got, want)
			}
			if m := e.Diff(res, []Fault{f}); !reflect.DeepEqual(m, want) {
				t.Fatalf("seed %d fault %v: Diff %v, multi-fault engine %v", seed, f, m, want)
			}
			if len(want) == 0 {
				continue
			}
			switch typ := n.Gates[f.Gate].Type; {
			case f.Pin == OutputPin && typ == netlist.DFF:
				detected["flop output"]++
			case f.Pin != OutputPin && typ == netlist.DFF:
				detected["flop data pin"]++
			case f.Pin != OutputPin && typ == netlist.Output:
				detected["PO branch"]++
			}
		}
	}
	for _, kind := range []string{"flop output", "flop data pin", "PO branch"} {
		if detected[kind] == 0 {
			t.Errorf("no detected %s fault exercised", kind)
		}
	}
}
