package dataset

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/noise"
	"repro/internal/obs"
)

func tinyBundle(t *testing.T, cfg ConfigName) *Bundle {
	t.Helper()
	p, _ := gen.ProfileByName("aes")
	p = p.Scaled(0.08)
	b, err := Build(p, cfg, BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPickSystematicFaultConcurrent picks systematic faults from one
// bundle on several goroutines at once. Each pick's fault simulation runs
// on a pooled engine fork, so the picks equal the serial ones and the race
// detector finds no shared scratch.
func TestPickSystematicFaultConcurrent(t *testing.T) {
	p, _ := gen.ProfileByName("aes")
	b, err := Build(p.Scaled(0.15), Syn1, BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type pick struct {
		f  faultsim.Fault
		ok bool
	}
	const goroutines, calls = 4, 20
	want := make([]pick, calls)
	for i := range want {
		f, ok := b.PickSystematicFault(int64(i))
		want[i] = pick{f, ok}
	}
	got := make([][]pick, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]pick, calls)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range got[g] {
				i := (k + 5*g) % calls
				f, ok := b.PickSystematicFault(int64(i))
				got[g][i] = pick{f, ok}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, p := range got[g] {
			if p != want[i] {
				t.Errorf("goroutine %d seed %d: picked %+v, serial %+v", g, i, p, want[i])
			}
		}
	}
}

func TestBuildConfigs(t *testing.T) {
	base := tinyBundle(t, Syn1)
	for _, cfg := range []ConfigName{TPI, Syn2, Par} {
		b := tinyBundle(t, cfg)
		if b.Netlist.NumMIVs() == 0 {
			t.Errorf("%s: no MIVs", cfg)
		}
		if b.ATPG.Coverage() < 0.85 {
			t.Errorf("%s: coverage %.3f", cfg, b.ATPG.Coverage())
		}
		switch cfg {
		case TPI:
			if len(b.Netlist.FFs) <= len(base.Netlist.FFs) {
				t.Error("TPI should add observation flops")
			}
		case Syn2:
			if b.Netlist.NumGates() == base.Netlist.NumGates() {
				t.Error("Syn2 should change the gate count")
			}
		}
	}
	if _, err := Build(base.Profile, ConfigName("bogus"), BuildOptions{Seed: 1}); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestRandPartVariantsDiffer(t *testing.T) {
	p, _ := gen.ProfileByName("aes")
	p = p.Scaled(0.08)
	a, err := Build(p, RandPart, BuildOptions{Seed: 1, RandVariant: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p, RandPart, BuildOptions{Seed: 1, RandVariant: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameTiers := true
	for i, g := range a.Netlist.Gates {
		if i < len(b.Netlist.Gates) && g.Tier != b.Netlist.Gates[i].Tier {
			sameTiers = false
			break
		}
	}
	if sameTiers {
		t.Fatal("random partition variants should assign different tiers")
	}
}

func TestGenerateSamples(t *testing.T) {
	b := tinyBundle(t, Syn1)
	samples := b.Generate(SampleOptions{Count: 30, Seed: 5, MIVFraction: 0.3})
	if len(samples) != 30 {
		t.Fatalf("generated %d samples", len(samples))
	}
	sawMIV, sawTop, sawBottom := false, false, false
	for _, s := range samples {
		if s.Log.Empty() {
			t.Fatal("sample with empty log")
		}
		if s.SG.NumNodes() == 0 {
			t.Fatal("sample with empty subgraph")
		}
		switch s.TierLabel {
		case -1:
			sawMIV = true
		case 0:
			sawBottom = true
		case 1:
			sawTop = true
		}
	}
	if !sawMIV || !sawTop || !sawBottom {
		t.Fatalf("label mix missing: miv=%v top=%v bottom=%v", sawMIV, sawTop, sawBottom)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b := tinyBundle(t, Syn1)
	a := b.Generate(SampleOptions{Count: 10, Seed: 9})
	c := b.Generate(SampleOptions{Count: 10, Seed: 9})
	for i := range a {
		if len(a[i].Log.Fails) != len(c[i].Log.Fails) || a[i].TierLabel != c[i].TierLabel {
			t.Fatal("nondeterministic samples")
		}
	}
}

// sampleEqual compares the full observable content of two samples.
func sampleEqual(a, b Sample) bool {
	if len(a.Faults) != len(b.Faults) || a.TierLabel != b.TierLabel {
		return false
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] || a.Sites[i] != b.Sites[i] {
			return false
		}
	}
	if len(a.Log.Fails) != len(b.Log.Fails) || a.Log.Truncated != b.Log.Truncated {
		return false
	}
	for i := range a.Log.Fails {
		if a.Log.Fails[i] != b.Log.Fails[i] {
			return false
		}
	}
	if a.SG.NumNodes() != b.SG.NumNodes() {
		return false
	}
	for i := range a.SG.Nodes {
		if a.SG.Nodes[i] != b.SG.Nodes[i] {
			return false
		}
	}
	if len(a.SG.X.Data) != len(b.SG.X.Data) {
		return false
	}
	for i := range a.SG.X.Data {
		if a.SG.X.Data[i] != b.SG.X.Data[i] {
			return false
		}
	}
	return true
}

// TestGenerateWorkerEquivalence asserts the tentpole determinism claim:
// parallel generation is bitwise-identical to sequential generation for
// every worker count (run under -race in CI to also catch data races).
func TestGenerateWorkerEquivalence(t *testing.T) {
	b := tinyBundle(t, Syn1)
	opts := []SampleOptions{
		{Count: 16, Seed: 21, MIVFraction: 0.3},
		{Count: 12, Seed: 22, Compacted: true},
		{Count: 10, Seed: 23, MultiFault: true},
	}
	for _, base := range opts {
		base.Workers = 1
		ref := b.Generate(base)
		if len(ref) != base.Count {
			t.Fatalf("reference produced %d/%d samples", len(ref), base.Count)
		}
		for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
			opt := base
			opt.Workers = w
			got := b.Generate(opt)
			if len(got) != len(ref) {
				t.Fatalf("workers=%d: %d samples vs %d", w, len(got), len(ref))
			}
			for i := range got {
				if !sampleEqual(ref[i], got[i]) {
					t.Fatalf("workers=%d: sample %d differs from sequential run", w, i)
				}
			}
		}
	}
}

// TestDrawMultiFaultStarvedTier is the regression test for the tier
// starvation bug: when a tier holds fewer than two eligible faults, the
// draw must pick a different tier instead of returning a 0- or 1-fault
// "multi-fault" sample.
func TestDrawMultiFaultStarvedTier(t *testing.T) {
	// Hand-built two-tier netlist whose top tier contains no eligible
	// fault site (only port pseudo-gates land there).
	n := &netlist.Netlist{Name: "starved"}
	addGate := func(typ netlist.GateType, tier int8, fanin ...int) int {
		id := len(n.Gates)
		n.Gates = append(n.Gates, &netlist.Gate{ID: id, Type: typ, Tier: tier, Fanin: fanin})
		return id
	}
	in0 := addGate(netlist.Input, netlist.TierBottom)
	in1 := addGate(netlist.Input, netlist.TierBottom)
	and0 := addGate(netlist.And, netlist.TierBottom, in0, in1)
	or0 := addGate(netlist.Or, netlist.TierBottom, and0, in1)
	addGate(netlist.Output, netlist.TierTop, or0)

	b := &Bundle{Netlist: n, faults: faultsim.AllFaults(n)}
	b.tierFaults = groupFaultsByTier(n, b.faults)

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		fs := b.drawMultiFault(rng)
		if len(fs) < 2 {
			t.Fatalf("trial %d: drew %d faults", trial, len(fs))
		}
		tier := n.Gates[fs[0].SiteGate(n)].Tier
		for _, f := range fs[1:] {
			if n.Gates[f.SiteGate(n)].Tier != tier {
				t.Fatalf("trial %d: faults span tiers", trial)
			}
		}
		seen := map[faultsim.Fault]bool{}
		for _, f := range fs {
			if seen[f] {
				t.Fatalf("trial %d: duplicate fault %v", trial, f)
			}
			seen[f] = true
		}
	}
}

// TestDrawMultiFaultNoEligibleTier covers the fully starved design: every
// tier below the 2-fault floor must yield nil, not a degenerate sample.
func TestDrawMultiFaultNoEligibleTier(t *testing.T) {
	n := &netlist.Netlist{Name: "empty"}
	n.Gates = append(n.Gates, &netlist.Gate{ID: 0, Type: netlist.Input, Tier: netlist.TierBottom})
	b := &Bundle{Netlist: n, faults: faultsim.AllFaults(n)}
	b.tierFaults = groupFaultsByTier(n, b.faults)
	if fs := b.drawMultiFault(rand.New(rand.NewSource(1))); fs != nil {
		t.Fatalf("expected nil, got %d faults", len(fs))
	}
}

func TestMultiFaultSamples(t *testing.T) {
	b := tinyBundle(t, Syn1)
	samples := b.Generate(SampleOptions{Count: 10, Seed: 11, MultiFault: true})
	if len(samples) == 0 {
		t.Fatal("no multi-fault samples")
	}
	for _, s := range samples {
		if len(s.Faults) < 2 {
			t.Fatalf("multi-fault sample has %d faults", len(s.Faults))
		}
		// All faults share one tier.
		tier := b.Netlist.Gates[s.Faults[0].SiteGate(b.Netlist)].Tier
		for _, f := range s.Faults[1:] {
			if b.Netlist.Gates[f.SiteGate(b.Netlist)].Tier != tier {
				t.Fatal("multi-fault sample spans tiers")
			}
		}
		if s.TierLabel < 0 {
			t.Fatal("multi-fault gate sample should carry a tier label")
		}
	}
}

// TestGenerateNoiseLevelZeroIsIdentity is the golden identity check: a nil
// noise model and an explicit level-0 model must produce byte-identical
// written failure logs and fully equal samples.
func TestGenerateNoiseLevelZeroIsIdentity(t *testing.T) {
	b := tinyBundle(t, Syn1)
	base := SampleOptions{Count: 12, Seed: 31, MIVFraction: 0.3}
	clean := b.Generate(base)
	withZero := base
	withZero.Noise = noise.ModelAt(0, 99)
	zero := b.Generate(withZero)
	if len(clean) != len(zero) {
		t.Fatalf("%d vs %d samples", len(clean), len(zero))
	}
	for i := range clean {
		if !sampleEqual(clean[i], zero[i]) {
			t.Fatalf("sample %d differs under level-0 noise", i)
		}
		var a, c bytes.Buffer
		if err := failurelog.Write(&a, clean[i].Log); err != nil {
			t.Fatal(err)
		}
		if err := failurelog.Write(&c, zero[i].Log); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Fatalf("sample %d: written log bytes differ under level-0 noise", i)
		}
	}
}

// TestGenerateNoiseWorkerEquivalence extends the determinism contract to
// noisy generation: the same seed and noise model must produce identical
// samples for every worker count.
func TestGenerateNoiseWorkerEquivalence(t *testing.T) {
	b := tinyBundle(t, Syn1)
	for _, level := range []float64{0.3, 1.0} {
		base := SampleOptions{Count: 12, Seed: 33, MIVFraction: 0.3, Workers: 1,
			Noise: noise.ModelAt(level, 77)}
		ref := b.Generate(base)
		if len(ref) == 0 {
			t.Fatalf("level %.1f: no samples survived", level)
		}
		for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
			opt := base
			opt.Workers = w
			got := b.Generate(opt)
			if len(got) != len(ref) {
				t.Fatalf("level %.1f workers=%d: %d samples vs %d", level, w, len(got), len(ref))
			}
			for i := range got {
				if !sampleEqual(ref[i], got[i]) {
					t.Fatalf("level %.1f workers=%d: sample %d differs", level, w, i)
				}
			}
		}
	}
}

// TestGenerateNoisePerturbs sanity-checks that a harsh model actually
// changes the logs and that pipeline stages still hold their invariants.
func TestGenerateNoisePerturbs(t *testing.T) {
	b := tinyBundle(t, Syn1)
	clean := b.Generate(SampleOptions{Count: 12, Seed: 35})
	noisy := b.Generate(SampleOptions{Count: 12, Seed: 35, Noise: noise.ModelAt(1, 55)})
	changed := false
	for i := range noisy {
		if noisy[i].Log.Empty() {
			t.Fatal("emptied log survived generation")
		}
		if noisy[i].SG.NumNodes() == 0 {
			t.Fatal("noisy sample with empty subgraph")
		}
		if i < len(clean) && len(noisy[i].Log.Fails) != len(clean[i].Log.Fails) {
			changed = true
		}
	}
	if !changed && len(noisy) == len(clean) {
		t.Fatal("max-severity noise left every log untouched")
	}
}

// TestGenerateTelemetryCounters checks the attempt accounting invariant:
// every executed attempt either produced a sample or named its rejection
// reason, so attempts == accepted + sum(rejected). The produced samples
// must be bitwise-unchanged by instrumentation.
func TestGenerateTelemetryCounters(t *testing.T) {
	b := tinyBundle(t, Syn1)
	reg := obs.NewRegistry()
	opt := SampleOptions{Count: 20, Seed: 5, MIVFraction: 0.3, Noise: noise.ModelAt(0.5, 11)}
	plain := b.Generate(opt)
	opt.Obs = reg
	instrumented := b.Generate(opt)

	if len(plain) != len(instrumented) {
		t.Fatalf("instrumentation changed sample count: %d vs %d", len(plain), len(instrumented))
	}
	for i := range plain {
		if len(plain[i].Log.Fails) != len(instrumented[i].Log.Fails) || plain[i].TierLabel != instrumented[i].TierLabel {
			t.Fatalf("instrumentation changed sample %d", i)
		}
	}

	attempts := reg.Counter("m3d_dataset_attempts_total").Value()
	accepted := reg.Counter("m3d_dataset_accepted_total").Value()
	rejected := int64(0)
	for _, reason := range []string{"undetected", "noise_emptied", "no_multi_tier"} {
		rejected += reg.Counter("m3d_dataset_rejected_total", "reason", reason).Value()
	}
	if attempts == 0 {
		t.Fatal("no attempts counted")
	}
	if attempts != accepted+rejected {
		t.Fatalf("attempts %d != accepted %d + rejected %d", attempts, accepted, rejected)
	}
	if accepted < int64(len(instrumented)) {
		t.Fatalf("accepted %d < produced %d", accepted, len(instrumented))
	}
	if sps := reg.Gauge("m3d_dataset_samples_per_second").Value(); sps <= 0 {
		t.Fatalf("samples/sec gauge %v", sps)
	}
}
