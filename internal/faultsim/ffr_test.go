package faultsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// ffrCircuit is a hand-built netlist whose fanout-free regions cover the
// stem rule's corner cases:
//
//   - flop f0's output has a single sink, a, so f0 is interior;
//   - a → x (XOR) → m (MUX data pin) → c is a single-sink chain;
//   - c is captured by flop f2 and has one propagating sink, s, so c is
//     still a stem;
//   - s feeds two pins of its only sink u = MUX(s, s, i2), so s is
//     interior and a flip of s reaches u through both pins;
//   - u fans out to two gates, each captured, so u, v1 and v2 are stems.
func ffrCircuit() (n *netlist.Netlist, g map[string]int) {
	n = netlist.New("ffr")
	g = map[string]int{}
	add := func(name string, t netlist.GateType, fanin ...int) {
		g[name] = n.AddGate(name, t, fanin...)
	}
	add("i0", netlist.Input)
	add("i1", netlist.Input)
	add("i2", netlist.Input)
	add("f0", netlist.DFF)
	add("f1", netlist.DFF)
	add("f2", netlist.DFF)
	add("a", netlist.Nand, g["f0"], g["i0"])
	add("x", netlist.Xor, g["a"], g["i1"])
	add("m", netlist.Mux, g["f1"], g["x"], g["i2"])
	add("c", netlist.Buf, g["m"])
	add("s", netlist.Xnor, g["c"], g["i0"])
	add("u", netlist.Mux, g["s"], g["s"], g["i2"])
	add("v1", netlist.Not, g["u"])
	add("v2", netlist.Buf, g["u"])
	add("o1", netlist.Output, g["v1"])
	n.Connect(g["f0"], g["v2"])
	n.Connect(g["f1"], g["i1"])
	n.Connect(g["f2"], g["c"])
	return n, g
}

func TestNewStems(t *testing.T) {
	n, g := ffrCircuit()
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s)
	want := map[string]string{
		"f0": "c", "a": "c", "x": "c", "m": "c", "f1": "c",
		"c": "c", // captured by f2 despite its single propagating sink
		"s": "u", // feeds two pins of u, its only sink
		"u": "u", "v1": "v1", "v2": "v2",
		"i0": "i0", "i2": "i2", // two sinks each
		"i1": "i1",             // captured by f1
		"f2": "f2", "o1": "o1", // no propagating sink
	}
	for name, stem := range want {
		if got := int(e.stems[g[name]]); got != g[stem] {
			t.Errorf("stem of %s is %s, want %s", name, n.Gates[got].Name, stem)
		}
	}

	// Every fault's diff, rebuilt from its stem flip, matches the
	// multi-fault engine, and so does each member of a stem group masked
	// to its own lanes. Faults on s of either polarity flip u, through
	// both of its MUX pins.
	res := s.Run(sim.RandomPatterns(n, 150, 3))
	faults := append(AllFaults(n), Fault{Gate: g["o1"], Pin: 0, Pol: SlowToRise}, Fault{Gate: g["o1"], Pin: 0, Pol: SlowToFall})
	for _, f := range faults {
		want := e.diffMulti(res, []Fault{f})
		if got := e.Diff(res, []Fault{f}); !reflect.DeepEqual(got, want) {
			t.Fatalf("fault %v: Diff %v, multi-fault engine %v", f, got, want)
		}
	}
	groups := checkStemGroups(t, e, res, faults)
	for _, name := range []string{"c", "u"} {
		if groups[g[name]] < 2 {
			t.Errorf("stem %s: %d detected members, want a shared group", name, groups[g[name]])
		}
	}
	flip := make([]uint64, 3)
	for _, pol := range []Polarity{SlowToRise, SlowToFall} {
		if stem := e.StemFlip(res, Fault{Gate: g["s"], Pin: OutputPin, Pol: pol}, flip); stem != g["u"] || flip[0]|flip[1]|flip[2] == 0 {
			t.Errorf("s/out/%v: stem %d flip %x, want a flip of u", pol, stem, flip)
		}
	}
}

// TestDiffStemMatchesMultiFaultEngine checks stem-group scoring's identity
// on the randomCircuit fixtures of TestDiffObsMatchesMultiFaultEngine: for
// faults sharing a stem, the stem's diff under the union of their flips,
// masked to one member's flip, is that member's diff word for word, tail
// lanes included.
func TestDiffStemMatchesMultiFaultEngine(t *testing.T) {
	shared := 0
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
		res := s.Run(sim.RandomPatterns(n, 150, seed))
		faults := AllFaults(n)
		for _, po := range n.POs {
			faults = append(faults, Fault{Gate: po, Pin: 0, Pol: SlowToRise}, Fault{Gate: po, Pin: 0, Pol: SlowToFall})
		}
		for _, members := range checkStemGroups(t, e, res, faults) {
			if members > 1 {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no stem shared by two detected faults")
	}
}

// checkStemGroups groups faults by stem, propagates each stem once under
// the union of its members' flips, and checks each member's masked diff
// against the multi-fault engine. It returns the number of detected
// members per stem.
func checkStemGroups(t *testing.T, e *Engine, res *sim.Result, faults []Fault) map[int]int {
	t.Helper()
	words := len(res.V2[0])
	byStem := map[int][]Fault{}
	for _, f := range faults {
		if stem := e.Stem(f); stem >= 0 {
			byStem[stem] = append(byStem[stem], f)
		}
	}
	detected := map[int]int{}
	for stem, members := range byStem {
		flips := make([][]uint64, len(members))
		union := make([]uint64, words)
		for k, f := range members {
			flips[k] = make([]uint64, words)
			if got := e.StemFlip(res, f, flips[k]); got != stem {
				t.Fatalf("fault %v: StemFlip stem %d, Stem %d", f, got, stem)
			}
			for w, v := range flips[k] {
				union[w] |= v
			}
		}
		diffs := map[int][]uint64{}
		for _, od := range e.DiffStem(res, stem, union) {
			diffs[od.Gate] = append([]uint64(nil), od.Diff...)
		}
		for k, f := range members {
			got := map[int][]uint64{}
			for gate, d := range diffs {
				masked, any := make([]uint64, words), uint64(0)
				for w := range d {
					masked[w] = d[w] & flips[k][w]
					any |= masked[w]
				}
				if any != 0 {
					got[gate] = masked
				}
			}
			want := e.diffMulti(res, []Fault{f})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fault %v in stem %d group of %d: masked stem diff %v, multi-fault engine %v", f, stem, len(members), got, want)
			}
			if len(want) > 0 {
				detected[stem]++
			}
		}
	}
	return detected
}
