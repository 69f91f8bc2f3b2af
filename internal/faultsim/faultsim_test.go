package faultsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
	"repro/internal/sim"
)

func TestApplyTDFTruthTable(t *testing.T) {
	// Per bit: (v1, goodV2) -> faulty V2.
	cases := []struct {
		pol    Polarity
		v1, w  uint64
		expect uint64
	}{
		{SlowToRise, 0, 1, 0}, // rising transition blocked
		{SlowToRise, 1, 0, 0}, // falling unaffected
		{SlowToRise, 0, 0, 0},
		{SlowToRise, 1, 1, 1},
		{SlowToFall, 1, 0, 1}, // falling transition blocked
		{SlowToFall, 0, 1, 1}, // rising unaffected
		{SlowToFall, 0, 0, 0},
		{SlowToFall, 1, 1, 1},
	}
	for _, c := range cases {
		if got := applyTDF(c.pol, c.v1, c.w) & 1; got != c.expect {
			t.Errorf("applyTDF(%v, %d, %d) = %d want %d", c.pol, c.v1, c.w, got, c.expect)
		}
	}
}

// toggle builds ff -> inv -> ff with a PO on inv.
func toggle(t *testing.T) (*netlist.Netlist, *sim.Simulator, *Engine) {
	t.Helper()
	n := netlist.New("toggle")
	ff := n.AddGate("ff", netlist.DFF)
	inv := n.AddGate("inv", netlist.Not, ff)
	n.Connect(ff, inv)
	n.AddGate("po", netlist.Output, inv)
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, s, NewEngine(s)
}

func TestSTRDetectedOnRisingSite(t *testing.T) {
	n, s, e := toggle(t)
	ps := sim.NewPatternSet(n, 1)
	// Scan 1 into ff: launch inv=0, capture inv=1 (rising at inv).
	sim.SetBit(ps.FF[0], 0, true)
	res := s.Run(ps)
	inv := n.GateByName("inv")
	strF := Fault{Gate: inv, Pin: OutputPin, Pol: SlowToRise}
	stfF := Fault{Gate: inv, Pin: OutputPin, Pol: SlowToFall}
	if !e.Detects(res, strF) {
		t.Fatal("STR at rising site must be detected")
	}
	if e.Detects(res, stfF) {
		t.Fatal("STF at rising site must not be detected")
	}
}

func TestDFFOutputFaultPropagatesIntoCaptureFrame(t *testing.T) {
	n, s, e := toggle(t)
	ps := sim.NewPatternSet(n, 1)
	sim.SetBit(ps.FF[0], 0, false)
	// ff: V1=0, V2=1 (captures inv=1 at launch): rising at ff output.
	res := s.Run(ps)
	ff := n.GateByName("ff")
	f := Fault{Gate: ff, Pin: OutputPin, Pol: SlowToRise}
	d := e.Diff(res, []Fault{f})
	if len(d) == 0 {
		t.Fatal("flop output fault must propagate through capture frame")
	}
	// Faulty ff stays 0 in V2 -> inv stays 1 -> ff captures 1 (same) but
	// inv observed at PO flips from 0 to 1 and ff capture is unchanged.
	po := n.GateByName("po")
	if _, ok := d[po]; !ok {
		t.Fatal("PO must observe the fault")
	}
}

// branchCircuit: stem a AND b feeds two branches: one to PO via BUF, one to
// a flop via BUF.
func branchCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("branch")
	a := n.AddGate("a", netlist.Input)
	b := n.AddGate("b", netlist.Input)
	stem := n.AddGate("stem", netlist.And, a, b)
	b1 := n.AddGate("b1", netlist.Buf, stem)
	b2 := n.AddGate("b2", netlist.Buf, stem)
	n.AddGate("po", netlist.Output, b1)
	ff := n.AddGate("ff", netlist.DFF)
	n.Connect(ff, b2)
	return n
}

func TestInputPinFaultAffectsOneBranch(t *testing.T) {
	n := branchCircuit(t)
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(s)
	// The stem is driven by static PIs, so it cannot transition. Drive the
	// branch transition through the flop state instead: rebuild with stem
	// from a flop.
	_ = e
	n2 := netlist.New("branch2")
	ff0 := n2.AddGate("ff0", netlist.DFF)
	inv := n2.AddGate("inv", netlist.Not, ff0)
	n2.Connect(ff0, inv)
	b1 := n2.AddGate("b1", netlist.Buf, inv)
	b2 := n2.AddGate("b2", netlist.Buf, inv)
	n2.AddGate("po", netlist.Output, b1)
	ff1 := n2.AddGate("ff1", netlist.DFF)
	n2.Connect(ff1, b2)
	s2, err := sim.New(n2)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(s2)
	ps := sim.NewPatternSet(n2, 1)
	sim.SetBit(ps.FF[0], 0, false) // inv: 1 -> 0 falling
	res := s2.Run(ps)

	// STF on b2's input pin: only the flop branch observes it.
	f := Fault{Gate: n2.GateByName("b2"), Pin: 0, Pol: SlowToFall}
	d := e2.Diff(res, []Fault{f})
	po := n2.GateByName("po")
	ffg := n2.GateByName("ff1")
	if _, ok := d[po]; ok {
		t.Fatal("input-pin fault leaked to the other branch")
	}
	if _, ok := d[ffg]; !ok {
		t.Fatal("input-pin fault not observed on its own branch")
	}
	// Output fault at inv hits every branch: the PO, ff1, and ff0's own
	// data pin (inv feeds back into ff0).
	fo := Fault{Gate: n2.GateByName("inv"), Pin: OutputPin, Pol: SlowToFall}
	do := e2.Diff(res, []Fault{fo})
	for _, name := range []string{"po", "ff1", "ff0"} {
		if _, ok := do[n2.GateByName(name)]; !ok {
			t.Fatalf("output fault missing observation at %s (got %d sites)", name, len(do))
		}
	}
}

func TestDFFDataPinFault(t *testing.T) {
	_, s, e := toggle(t)
	n := s.Netlist()
	ps := sim.NewPatternSet(n, 1)
	sim.SetBit(ps.FF[0], 0, true) // inv falls 0... V1(inv)=0, V2(inv)=1: rising
	res := s.Run(ps)
	ff := n.GateByName("ff")
	f := Fault{Gate: ff, Pin: 0, Pol: SlowToRise}
	d := e.Diff(res, []Fault{f})
	if _, ok := d[ff]; !ok {
		t.Fatal("data-pin fault must flip the flop's captured value")
	}
	if _, ok := d[n.GateByName("po")]; ok {
		t.Fatal("data-pin fault must not affect the PO branch")
	}
}

func TestAllFaultsEnumeration(t *testing.T) {
	n := branchCircuit(t)
	fs := AllFaults(n)
	// Gates: stem(2 in), b1(1), b2(1), ff(1): outputs 4*2=8, inputs 5*2=10.
	if len(fs) != 18 {
		t.Fatalf("AllFaults = %d want 18", len(fs))
	}
}

func TestMIVFaults(t *testing.T) {
	n := branchCircuit(t)
	n.Gates[n.GateByName("b1")].IsMIV = true
	fs := MIVFaults(n)
	if len(fs) != 2 {
		t.Fatalf("MIVFaults = %d want 2", len(fs))
	}
}

// scalarFaulty re-simulates the faulty machine per pattern with a scalar
// evaluator, as an independent reference for Diff.
func scalarFaulty(n *netlist.Netlist, res *sim.Result, f Fault, k int) map[int]bool {
	apply := func(pol Polarity, v1, w bool) bool {
		if pol == SlowToRise && !v1 && w {
			return false
		}
		if pol == SlowToFall && v1 && !w {
			return true
		}
		return w
	}
	vals := make([]bool, len(n.Gates))
	for _, id := range n.TopoOrder() {
		g := n.Gates[id]
		switch g.Type {
		case netlist.Input:
			vals[id] = sim.GetBit(res.V2[id], k)
			continue
		case netlist.DFF:
			vals[id] = sim.GetBit(res.V2[id], k)
			if f.Pin == OutputPin && f.Gate == id {
				vals[id] = apply(f.Pol, sim.GetBit(res.V1[id], k), vals[id])
			}
			continue
		}
		in := make([]bool, len(g.Fanin))
		for pin, src := range g.Fanin {
			in[pin] = vals[src]
			if f.Pin == pin && f.Gate == id {
				in[pin] = apply(f.Pol, sim.GetBit(res.V1[src], k), in[pin])
			}
		}
		var v bool
		switch g.Type {
		case netlist.Buf, netlist.Output:
			v = in[0]
		case netlist.Not:
			v = !in[0]
		case netlist.And, netlist.Nand:
			v = true
			for _, b := range in {
				v = v && b
			}
			if g.Type == netlist.Nand {
				v = !v
			}
		case netlist.Or, netlist.Nor:
			v = false
			for _, b := range in {
				v = v || b
			}
			if g.Type == netlist.Nor {
				v = !v
			}
		case netlist.Xor, netlist.Xnor:
			v = false
			for _, b := range in {
				v = v != b
			}
			if g.Type == netlist.Xnor {
				v = !v
			}
		case netlist.Mux:
			if in[0] {
				v = in[2]
			} else {
				v = in[1]
			}
		}
		if f.Pin == OutputPin && f.Gate == id {
			v = apply(f.Pol, sim.GetBit(res.V1[id], k), v)
		}
		vals[id] = v
	}
	// Observation diffs.
	diff := make(map[int]bool)
	check := func(obsGate, src int) {
		captured := vals[src]
		if f.Gate == obsGate && f.Pin == 0 &&
			(n.Gates[obsGate].Type == netlist.DFF || n.Gates[obsGate].Type == netlist.Output) {
			captured = apply(f.Pol, sim.GetBit(res.V1[src], k), captured)
		}
		if captured != sim.GetBit(res.V2[src], k) {
			diff[obsGate] = true
		}
	}
	for _, po := range n.POs {
		check(po, n.Gates[po].Fanin[0])
	}
	for _, ff := range n.FFs {
		check(ff, n.Gates[ff].Fanin[0])
	}
	return diff
}

// TestDiffMatchesScalarReference cross-checks the event-driven word-level
// fault simulator against per-pattern scalar faulty simulation on random
// sequential circuits.
// randomCircuit builds a random sequential circuit: 3 PIs, 4 flops and 50
// random gates, each flop capturing a random non-PI signal (possibly another
// flop's output), and a PO on the last gate.
func randomCircuit(rng *rand.Rand) *netlist.Netlist {
	n := netlist.New("rand")
	var pool []int
	for i := 0; i < 3; i++ {
		pool = append(pool, n.AddGate("", netlist.Input))
	}
	var ffs []int
	for i := 0; i < 4; i++ {
		id := n.AddGate("", netlist.DFF)
		ffs = append(ffs, id)
		pool = append(pool, id)
	}
	types := []netlist.GateType{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
	}
	for i := 0; i < 50; i++ {
		gt := types[rng.Intn(len(types))]
		if gt == netlist.Not || gt == netlist.Buf {
			pool = append(pool, n.AddGate("", gt, pool[rng.Intn(len(pool))]))
			continue
		}
		pool = append(pool, n.AddGate("", gt,
			pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]))
	}
	for _, ff := range ffs {
		n.Connect(ff, pool[3+rng.Intn(len(pool)-3)])
	}
	n.AddGate("", netlist.Output, pool[len(pool)-1])
	return n
}

func TestDiffMatchesScalarReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomCircuit(rng)
		s, err := sim.New(n)
		if err != nil {
			return false
		}
		e := NewEngine(s)
		const pats = 70
		ps := sim.RandomPatterns(n, pats, seed+1)
		res := s.Run(ps)

		faults := AllFaults(n)
		for trial := 0; trial < 12; trial++ {
			f := faults[rng.Intn(len(faults))]
			d := e.Diff(res, []Fault{f})
			for k := 0; k < pats; k++ {
				want := scalarFaulty(n, res, f, k)
				for _, obs := range n.ObservationPoints() {
					got := false
					if m, ok := d[obs]; ok {
						got = sim.GetBit(m, k)
					}
					if got != want[obs] {
						t.Logf("seed %d fault %v pattern %d obs %d: got %v want %v",
							seed, f, k, obs, got, want[obs])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestNoTransitionNoDetection(t *testing.T) {
	n, s, e := toggle(t)
	ps := sim.NewPatternSet(n, 1)
	sim.SetBit(ps.FF[0], 0, true)
	res := s.Run(ps)
	inv := n.GateByName("inv")
	// inv rises (V1=0,V2=1): STF cannot activate.
	if e.Detects(res, Fault{Gate: inv, Pin: OutputPin, Pol: SlowToFall}) {
		t.Fatal("STF detected without a falling transition")
	}
}

func TestEmptyFaultList(t *testing.T) {
	n, s, e := toggle(t)
	ps := sim.NewPatternSet(n, 1)
	res := s.Run(ps)
	_ = n
	if d := e.Diff(res, nil); d != nil {
		t.Fatal("Diff(nil) should be nil")
	}
}
