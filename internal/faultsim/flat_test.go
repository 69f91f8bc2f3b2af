package faultsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// scrambledCircuit is a random sequential circuit whose gate IDs are not
// in topological order: the gates are created in a random order, empty,
// and wired afterwards. It has 3 PIs, 4 flops, 60 gates of every
// combinational type (two-input gates may read one driver on both pins),
// two POs, and flop data pins on random gates.
func scrambledCircuit(rng *rand.Rand) *netlist.Netlist {
	type spec struct {
		t     netlist.GateType
		fanin []int // logical indices
	}
	var specs []spec
	var pool []int
	for i := 0; i < 7; i++ {
		t := netlist.Input
		if i >= 3 {
			t = netlist.DFF
		}
		pool = append(pool, len(specs))
		specs = append(specs, spec{t: t})
	}
	types := []netlist.GateType{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Mux,
	}
	pick := func() int { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 60; i++ {
		t := types[rng.Intn(len(types))]
		var fi []int
		switch t {
		case netlist.Not, netlist.Buf:
			fi = []int{pick()}
		case netlist.Mux:
			fi = []int{pick(), pick(), pick()}
		default:
			fi = []int{pick(), pick()}
		}
		pool = append(pool, len(specs))
		specs = append(specs, spec{t: t, fanin: fi})
	}
	for _, drv := range []int{pool[len(pool)-1], pool[len(pool)-2]} {
		specs = append(specs, spec{t: netlist.Output, fanin: []int{drv}})
	}
	for ff := 3; ff < 7; ff++ {
		specs[ff].fanin = []int{pool[7+rng.Intn(len(pool)-7)]}
	}

	n := netlist.New("scrambled")
	id := make([]int, len(specs))
	for _, l := range rng.Perm(len(specs)) {
		id[l] = n.AddGate("", specs[l].t)
	}
	for l, sp := range specs {
		for _, f := range sp.fanin {
			n.Connect(id[l], id[f])
		}
	}
	return n
}

// TestFlatNetlist checks the flat netlist on scrambled circuits: the
// fan-in CSR is each gate's fan-in in pin order; the sink CSR lists, as
// topological positions after the driver's, each fanout gate that is not
// a PO or flop, once however many pins it feeds.
func TestFlatNetlist(t *testing.T) {
	var scrambled, twice, captured bool
	for seed := int64(1); seed <= 8; seed++ {
		n := scrambledCircuit(rand.New(rand.NewSource(seed)))
		s, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		fl := e.flat
		for _, g := range n.Gates {
			id := int32(g.ID)
			if fl.kind[id] != g.Type {
				t.Fatalf("seed %d gate %d: kind %v, want %v", seed, id, fl.kind[id], g.Type)
			}
			var fanin []int32
			for _, f := range g.Fanin {
				fanin = append(fanin, int32(f))
				propagates := g.Type != netlist.Output && g.Type != netlist.DFF
				scrambled = scrambled || (propagates && f > g.ID)
			}
			if got := fl.drivers(id); !slices.Equal(got, fanin) {
				t.Fatalf("seed %d gate %d: drivers %v, want %v", seed, id, got, fanin)
			}
			var want []int32
			for _, s := range g.Fanout {
				switch t := n.Gates[s].Type; {
				case t == netlist.Output || t == netlist.DFF:
					captured = true
				case slices.Contains(want, int32(s)):
					twice = true
				default:
					want = append(want, int32(s))
				}
			}
			var got []int32
			for _, p := range fl.propagating(id) {
				if p <= e.pos[id] {
					t.Fatalf("seed %d gate %d at position %d: sink position %d is not after it", seed, id, e.pos[id], p)
				}
				got = append(got, int32(e.order[p]))
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d gate %d: propagating sinks %v, want %v", seed, id, got, want)
			}
		}
	}
	if !scrambled || !twice || !captured {
		t.Fatalf("fixtures miss a case: IDs out of topological order %t, sink fed twice %t, PO or flop sink %t", scrambled, twice, captured)
	}
}

// TestDiffObsScrambledMatchesMultiFaultEngine runs the exactness checks of
// the cone kernels on scrambled circuits, where gate-ID order is not an
// event order: DiffObs and stem-group diffs against the multi-fault
// engine over three pattern words, and the single-word detection path
// against Diff.
func TestDiffObsScrambledMatchesMultiFaultEngine(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := scrambledCircuit(rand.New(rand.NewSource(seed)))
		s, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		faults := AllFaults(n)
		for _, po := range n.POs {
			faults = append(faults, Fault{Gate: po, Pin: 0, Pol: SlowToRise}, Fault{Gate: po, Pin: 0, Pol: SlowToFall})
		}
		res := s.Run(sim.RandomPatterns(n, 150, seed))
		detected := 0
		for _, f := range faults {
			want := e.diffMulti(res, []Fault{f})
			got := map[int][]uint64{}
			for _, od := range e.DiffObs(res, f) {
				got[od.Gate] = append([]uint64(nil), od.Diff...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d fault %v: DiffObs %v, multi-fault engine %v", seed, f, got, want)
			}
			if len(want) > 0 {
				detected++
			}
		}
		if detected == 0 {
			t.Fatalf("seed %d: no fault detected", seed)
		}
		checkStemGroups(t, e, res, faults)

		one := s.Run(sim.RandomPatterns(n, 64, seed))
		for _, f := range faults {
			if fast, slow := e.detectsFast(one, f), slowDetects(e, one, f); fast != slow {
				t.Fatalf("seed %d fault %v: detectsFast %t, Diff %t", seed, f, fast, slow)
			}
		}
	}
}

// TestQueuesDrained checks that every traversal leaves its event queue
// empty, including detections that stop at the first captured change
// before draining the queue, so no event leaks into the next traversal.
func TestQueuesDrained(t *testing.T) {
	early := 0
	for seed := int64(1); seed <= 8; seed++ {
		n := scrambledCircuit(rand.New(rand.NewSource(seed)))
		s, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s)
		res := s.Run(sim.RandomPatterns(n, 64, seed))
		wide := s.Run(sim.RandomPatterns(n, 150, seed))
		for _, f := range AllFaults(n) {
			if e.detectsFast(res, f) && slices.ContainsFunc(e.ds.queue.bits, func(b uint64) bool { return b != 0 }) {
				t.Fatalf("seed %d fault %v: detection left events queued", seed, f)
			}
			if q := &e.ds.queue; q.end > q.cur {
				early++
			}
			e.DiffObs(wide, f)
			if slices.ContainsFunc(e.dfs.queue.bits, func(b uint64) bool { return b != 0 }) {
				t.Fatalf("seed %d fault %v: propagation left events queued", seed, f)
			}
		}
	}
	if early == 0 {
		t.Fatal("no detection stopped before draining its queue")
	}
}
