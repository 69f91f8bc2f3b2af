package atpg

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// m3dDesign generates a design and partitions it into two tiers with
// MIVs, as dataset.Build does.
func m3dDesign(t *testing.T, design string, scale float64, seed int64) *netlist.Netlist {
	t.Helper()
	p, _ := gen.ProfileByName(design)
	m3d, err := partition.Partition(gen.Generate(p.Scaled(scale), seed), partition.FM, partition.Options{Seed: seed + 101})
	if err != nil {
		t.Fatal(err)
	}
	return m3d
}

// faultClasses splits the fault list into the classes that exercise each
// way a frame-1 change reaches frame 2: any fault, input-pin faults on
// flop-driven pins (the transform input is a decision variable),
// output-pin faults on flops, and input-pin faults on flop data pins.
func faultClasses(t *testing.T, n *netlist.Netlist) [][]faultsim.Fault {
	t.Helper()
	all := faultsim.AllFaults(n)
	classes := [][]faultsim.Fault{all, nil, nil, nil}
	for _, f := range all {
		g := n.Gates[f.Gate]
		switch {
		case f.Pin != faultsim.OutputPin && n.Gates[g.Fanin[f.Pin]].Type == netlist.DFF:
			classes[1] = append(classes[1], f)
		case f.Pin == faultsim.OutputPin && g.Type == netlist.DFF:
			classes[2] = append(classes[2], f)
		case f.Pin != faultsim.OutputPin && g.Type == netlist.DFF:
			classes[3] = append(classes[3], f)
		}
	}
	for i, c := range classes {
		if len(c) == 0 {
			t.Fatalf("%s: fault class %d is empty", n.Name, i)
		}
	}
	return classes
}

// support lists the decision variables in gate id's frame-1 fan-in cone.
func support(n *netlist.Netlist, p *podem, id int) []int {
	seen := map[int]bool{id: true}
	stack := []int{id}
	var vars []int
	for len(stack) > 0 {
		g := n.Gates[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		switch g.Type {
		case netlist.Input:
			vars = append(vars, int(p.srcIdx[g.ID]))
			continue
		case netlist.DFF:
			vars = append(vars, len(n.PIs)+int(p.srcIdx[g.ID]))
			continue
		}
		for _, d := range g.Fanin {
			if !seen[d] {
				seen[d] = true
				stack = append(stack, d)
			}
		}
	}
	slices.Sort(vars)
	return vars
}

// TestIncrementalImplyMatchesFull assigns random values to random decision
// variables and checks after every step that event-driven propagation
// leaves the three value planes identical to a full re-evaluation. A third
// of the steps assign a variable in the transform input's fan-in cone, so
// the site's own frame-1 seed fires often.
func TestIncrementalImplyMatchesFull(t *testing.T) {
	designs := []struct {
		name  string
		scale float64
		seed  int64
	}{{"aes", 0.04, 2}, {"tate", 0.05, 3}, {"leon3mp", 0.03, 4}}
	const sequences, steps = 200, 60
	for _, d := range designs {
		n := m3dDesign(t, d.name, d.scale, d.seed)
		classes := faultClasses(t, n)
		pd, ref := newPodem(n, 10), newPodem(n, 10)
		nvars := len(n.PIs) + len(n.FFs)
		for seq := 0; seq < sequences; seq++ {
			rng := rand.New(rand.NewSource(int64(seq)))
			class := classes[seq%len(classes)]
			f := class[rng.Intn(len(class))]
			for i := range pd.piVal {
				pd.piVal[i] = vX
			}
			for i := range pd.ffVal {
				pd.ffVal[i] = vX
			}
			pd.imply(f)
			near := support(n, pd, int(pd.transformInput(f)))
			for step := 0; step < steps; step++ {
				v := rng.Intn(nvars)
				if len(near) > 0 && rng.Intn(3) == 0 {
					v = near[rng.Intn(len(near))]
				}
				val := byte(rng.Intn(3)) // 0, 1, or X
				if v < len(n.PIs) {
					pd.piVal[v] = val
				} else {
					pd.ffVal[v-len(n.PIs)] = val
				}
				pd.propagate(v, f)

				copy(ref.piVal, pd.piVal)
				copy(ref.ffVal, pd.ffVal)
				ref.imply(f)
				for _, plane := range []struct {
					name     string
					inc, ful []byte
				}{{"f1", pd.f1, ref.f1}, {"g2", pd.g2, ref.g2}, {"b2", pd.b2, ref.b2}} {
					if !bytes.Equal(plane.inc, plane.ful) {
						for id := range plane.inc {
							if plane.inc[id] != plane.ful[id] {
								t.Fatalf("%s seq %d step %d fault %v: %s[%d] incremental %d, full %d",
									d.name, seq, step, f, plane.name, id, plane.inc[id], plane.ful[id])
							}
						}
					}
				}
			}
		}
	}
}

// TestSearchMatchesFullImply runs PODEM on each target twice, with
// event-driven implication and with a full imply after every assignment,
// and requires the same outcome and the same pattern bits. Targets are
// fault samples of three small designs, on many of which PODEM succeeds,
// and the bench design's top-up targets: its first 120 faults left
// undetected by the random phase, where the consecutive-failure stop
// ends the top-up.
func TestSearchMatchesFullImply(t *testing.T) {
	type target struct {
		n      *netlist.Netlist
		faults []faultsim.Fault
	}
	var targets []target
	for _, d := range []struct {
		name  string
		scale float64
		seed  int64
	}{{"aes", 0.05, 1}, {"tate", 0.1, 3}, {"leon3mp", 0.05, 5}} {
		n := m3dDesign(t, d.name, d.scale, d.seed)
		var sample []faultsim.Fault
		for i, f := range faultsim.AllFaults(n) {
			if i%23 == 0 {
				sample = append(sample, f)
			}
		}
		targets = append(targets, target{n, sample})
	}

	bench := m3dDesign(t, "aes", 0.7, 1)
	random, err := Generate(bench, Options{Seed: 8, SkipTopUp: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(bench)
	if err != nil {
		t.Fatal(err)
	}
	eng, res := faultsim.NewEngine(s), s.Run(random.Patterns)
	var topUp []faultsim.Fault
	for _, f := range faultsim.AllFaults(bench) {
		if len(topUp) < 120 && !eng.Detects(res, f) {
			topUp = append(topUp, f)
		}
	}
	targets = append(targets, target{bench, topUp})

	for _, tg := range targets {
		pd := newPodem(tg.n, 24)
		full := func(_ int, f faultsim.Fault) { pd.imply(f) }
		found := 0
		for _, f := range tg.faults {
			got, ok := pd.generate(f)
			want, wantOK := pd.search(f, full)
			if ok != wantOK {
				t.Fatalf("%s %v: event-driven ok=%v, full imply ok=%v", tg.n.Name, f, ok, wantOK)
			}
			if !ok {
				continue
			}
			found++
			for i := range got.PI {
				if got.PI[i][0] != want.PI[i][0] {
					t.Fatalf("%s %v: PI %d differs", tg.n.Name, f, i)
				}
			}
			for i := range got.FF {
				if got.FF[i][0] != want.FF[i][0] {
					t.Fatalf("%s %v: FF %d differs", tg.n.Name, f, i)
				}
			}
		}
		t.Logf("%s: %d targets, %d patterns", tg.n.Name, len(tg.faults), found)
		if tg.n != bench && found == 0 {
			t.Fatalf("%s: PODEM found no pattern, so no pattern was compared", tg.n.Name)
		}
	}
}
