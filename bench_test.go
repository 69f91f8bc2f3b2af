// Package repro's benchmark harness regenerates every table and figure of
// the paper (see DESIGN.md's per-experiment index) at a reduced scale, and
// measures the ablations called out in DESIGN.md §4. Custom metrics carry
// the quality numbers (accuracy, resolution, tier localization) so a bench
// run doubles as a regression check on the reproduced shapes.
//
// Full-scale regeneration with printed tables: go run ./cmd/experiments.
package repro

import (
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/experiment"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/hgraph"
	"repro/internal/policy"
)

// benchScale keeps the full suite of benches around a minute.
const benchScale = 0.15

func newBenchSuite() *experiment.Suite {
	s := experiment.NewSuite(io.Discard)
	s.Scale = benchScale
	s.TrainCount = 90
	s.TestCount = 40
	return s
}

// suite benches: one per paper table/figure. Each iteration regenerates
// the experiment end to end on a fresh suite (caches defeat repetition).
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		if err := s.Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Explainer(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkTable3DesignMatrix(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkFig5PCA(b *testing.B)               { benchExperiment(b, "fig5") }
func BenchmarkFig6Transfer(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkTable5ATPGQuality(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkTable6Localization(b *testing.B)    { benchExperiment(b, "table6") }
func BenchmarkTable7ATPGQualityEDT(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8LocalizationEDT(b *testing.B) { benchExperiment(b, "table8") }
func BenchmarkTable9Runtime(b *testing.B)         { benchExperiment(b, "table9") }
func BenchmarkFig10PFA(b *testing.B)              { benchExperiment(b, "fig10") }
func BenchmarkTable10MultiFault(b *testing.B)     { benchExperiment(b, "table10") }
func BenchmarkTable11Ablation(b *testing.B)       { benchExperiment(b, "table11") }

// Shared fixture for the ablation benches: one small bundle with train and
// test samples.
type benchFixture struct {
	bundle *dataset.Bundle
	train  []dataset.Sample
	test   []dataset.Sample
}

var (
	fixOnce sync.Once
	fix     *benchFixture
)

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		p, _ := gen.ProfileByName("aes")
		p = p.Scaled(benchScale)
		bundle, err := dataset.Build(p, dataset.Syn1, dataset.BuildOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		fix = &benchFixture{
			bundle: bundle,
			train:  bundle.Generate(dataset.SampleOptions{Count: 120, Seed: 2, MIVFraction: 0.2}),
			test:   bundle.Generate(dataset.SampleOptions{Count: 60, Seed: 3, MIVFraction: 0.2}),
		}
	})
	return fix
}

func tierAccuracy(tp *gnn.TierPredictor, samples []dataset.Sample) float64 {
	ok, n := 0, 0
	for _, s := range samples {
		if s.TierLabel < 0 {
			continue
		}
		n++
		if tier, _ := tp.PredictTier(s.SG); tier == s.TierLabel {
			ok++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}

// BenchmarkAblationTopFeatures compares the Tier-predictor with and
// without the Topedge-derived feature columns (DESIGN.md ablation 1,
// paper Section III-A: "top-level edges as numerical features").
func BenchmarkAblationTopFeatures(b *testing.B) {
	f := getFixture(b)
	zeroTopCols := func(samples []dataset.Sample) []dataset.Sample {
		out := make([]dataset.Sample, len(samples))
		for i, s := range samples {
			cp := s
			sg := *s.SG
			sg.X = s.SG.X.Clone()
			for r := 0; r < sg.X.Rows; r++ {
				row := sg.X.Row(r)
				row[2] = 0 // topedges connected
				for c := 9; c < hgraph.FeatureDim; c++ {
					row[c] = 0
				}
			}
			cp.SG = &sg
			out[i] = cp
		}
		return out
	}
	var accFull, accNoTop float64
	for i := 0; i < b.N; i++ {
		fwFull, err := core.Train(f.train, core.TrainOptions{Seed: 4, SkipClassifier: true})
		if err != nil {
			b.Fatal(err)
		}
		accFull = tierAccuracy(fwFull.Tier, f.test)
		fwNoTop, err := core.Train(zeroTopCols(f.train), core.TrainOptions{Seed: 4, SkipClassifier: true})
		if err != nil {
			b.Fatal(err)
		}
		accNoTop = tierAccuracy(fwNoTop.Tier, zeroTopCols(f.test))
	}
	b.ReportMetric(accFull*100, "acc-full-%")
	b.ReportMetric(accNoTop*100, "acc-notop-%")
}

// BenchmarkAblationThreshold compares the PR-curve threshold T_P against a
// fixed 0.5 gate (DESIGN.md ablation 2): accuracy loss from pruning on the
// test set under each.
func BenchmarkAblationThreshold(b *testing.B) {
	f := getFixture(b)
	var lossTP, loss05 float64
	for i := 0; i < b.N; i++ {
		fw, err := core.Train(f.train, core.TrainOptions{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		measure := func(tp float64) float64 {
			pol := fw.PolicyFor(f.bundle)
			pol.TP = tp
			lost, n := 0, 0
			for _, s := range f.test {
				rep := f.bundle.Diag.Diagnose(s.Log)
				if !rep.Accurate(f.bundle.Netlist, s.Faults) {
					continue
				}
				n++
				out := pol.Apply(rep, s.SG)
				if !out.Report.Accurate(f.bundle.Netlist, s.Faults) {
					lost++
				}
			}
			if n == 0 {
				return 0
			}
			return float64(lost) / float64(n)
		}
		lossTP = measure(fw.TP)
		loss05 = measure(0.5)
	}
	b.ReportMetric(lossTP*100, "accloss-TP-%")
	b.ReportMetric(loss05*100, "accloss-0.5-%")
}

// BenchmarkAblationOversample compares the Classifier trained with and
// without dummy-buffer oversampling (DESIGN.md ablation 3).
func BenchmarkAblationOversample(b *testing.B) {
	f := getFixture(b)
	var withOS, withoutOS float64
	for i := 0; i < b.N; i++ {
		fw, err := core.Train(f.train, core.TrainOptions{Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		// Rebuild classifier training set exactly as core.Train does.
		var cls []gnn.GraphSample
		for _, s := range f.train {
			if s.TierLabel < 0 {
				continue
			}
			tier, conf := fw.Tier.PredictTier(s.SG)
			if conf < fw.TP {
				continue
			}
			label := 0
			if tier == s.TierLabel {
				label = 1
			}
			cls = append(cls, gnn.GraphSample{SG: s.SG, Label: label})
		}
		eval := func(c *gnn.Classifier) float64 {
			// Fraction of false-positive test samples the classifier
			// correctly refuses to prune.
			ok, n := 0, 0
			for _, s := range f.test {
				if s.TierLabel < 0 {
					continue
				}
				tier, conf := fw.Tier.PredictTier(s.SG)
				if conf < fw.TP || tier == s.TierLabel {
					continue
				}
				n++
				if c.PredictPrune(s.SG) < 0.5 {
					ok++
				}
			}
			if n == 0 {
				return 1
			}
			return float64(ok) / float64(n)
		}
		cOS := gnn.NewClassifier(fw.Tier, 7)
		cOS.Train(policy.Oversample(cls, 8), gnn.TrainConfig{Epochs: 15, Seed: 9})
		withOS = eval(cOS)
		cNo := gnn.NewClassifier(fw.Tier, 7)
		cNo.Train(cls, gnn.TrainConfig{Epochs: 15, Seed: 9})
		withoutOS = eval(cNo)
	}
	b.ReportMetric(withOS*100, "fp-caught-os-%")
	b.ReportMetric(withoutOS*100, "fp-caught-raw-%")
}

// BenchmarkDiagnoseThroughput measures end-to-end per-chip diagnosis cost
// (back-trace + GNN inference + ATPG diagnosis + policy).
func BenchmarkDiagnoseThroughput(b *testing.B) {
	f := getFixture(b)
	fw, err := core.Train(f.train, core.TrainOptions{Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f.test[i%len(f.test)]
		fw.Diagnose(f.bundle, s.Log)
	}
}

// BenchmarkDatasetGenerate measures the parallel rejection-resampling
// sample generator at the machine's full worker count (samples/sec is the
// number that should scale with cores; the samples themselves are
// identical for every worker count).
func BenchmarkDatasetGenerate(b *testing.B) {
	f := getFixture(b)
	const count = 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss := f.bundle.Generate(dataset.SampleOptions{Count: count, Seed: 12, MIVFraction: 0.2})
		if len(ss) != count {
			b.Fatalf("generated %d/%d samples", len(ss), count)
		}
	}
	b.ReportMetric(float64(count*b.N)/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkGNNFit measures data-parallel mini-batch training of the
// Tier-predictor on the fixture's training set.
func BenchmarkGNNFit(b *testing.B) {
	f := getFixture(b)
	var graphs []gnn.GraphSample
	for _, s := range f.train {
		if s.TierLabel < 0 {
			continue
		}
		graphs = append(graphs, gnn.GraphSample{SG: s.SG, Label: s.TierLabel})
	}
	const epochs = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := gnn.NewTierPredictor(13)
		tp.Model.Fit(graphs, gnn.TrainConfig{Epochs: epochs, Seed: 14, FitScaler: true})
	}
	b.ReportMetric(float64(epochs*b.N)/b.Elapsed().Seconds(), "epochs/sec")
}

// BenchmarkBacktrace measures subgraph extraction alone.
func BenchmarkBacktrace(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f.test[i%len(f.test)]
		f.bundle.Graph.Backtrace(s.Log, f.bundle.Diag.Result())
	}
}

// BenchmarkScoreCandidate measures scoring one ATPG candidate (one
// event-driven fault propagation plus popcounts against the observed
// bitmasks) at steady state on a warmed engine fork. The candidates are
// the reported suspects of the test chips, each chip once uncompacted and
// once EDT-compacted, so allocs/op covers both scoring modes (must be 0).
func BenchmarkScoreCandidate(b *testing.B) {
	f := getFixture(b)
	eng := f.bundle.Diag.Fork()
	type job struct {
		cand     faultsim.Fault
		observed *diagnosis.Observed
	}
	var jobs []job
	for _, s := range f.test {
		for _, compacted := range []bool{false, true} {
			log := eng.InjectLog(s.Faults, compacted)
			o := eng.NewObserved(log)
			for _, c := range eng.Diagnose(log).Candidates {
				jobs = append(jobs, job{c.Fault, o})
			}
		}
	}
	for _, j := range jobs {
		eng.ScoreCandidate(j.cand, j.observed)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		eng.ScoreCandidate(j.cand, j.observed)
	}
}

// BenchmarkTierInference measures one Tier-predictor forward pass at
// steady state: adjacency caches and arena pool are warmed first, so
// allocs/op reports the per-prediction allocation count (must be 0).
func BenchmarkTierInference(b *testing.B) {
	f := getFixture(b)
	fw, err := core.Train(f.train, core.TrainOptions{Seed: 11, SkipClassifier: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range f.test {
		fw.Tier.PredictTier(s.SG)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Tier.PredictTier(f.test[i%len(f.test)].SG)
	}
}
