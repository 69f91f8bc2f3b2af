package experiment

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hgraph"
	"repro/internal/mat"
	"repro/internal/par"
)

// Fig5 reproduces the PCA transferability visualization: subgraph feature
// vectors of the Tate benchmark across design configurations, projected on
// the top two principal components. Overlap is quantified as the ratio of
// mean between-configuration centroid distance to mean within-configuration
// spread — near or below 1 means the distributions overlap heavily, the
// paper's qualitative conclusion.
func (s *Suite) Fig5() error {
	s.printf("\n== Fig. 5: PCA of subgraph features across configurations (tate) ==\n")
	design := "tate"
	var rows [][]float64
	var labels []string
	for _, cfg := range dataset.Configs() {
		test, _, err := s.testSamples(design, cfg, false)
		if err != nil {
			return err
		}
		for i, smp := range test {
			if i >= 60 {
				break
			}
			rows = append(rows, smp.SG.FeatureSummary())
			labels = append(labels, string(cfg))
		}
	}
	x := mat.FromRows(rows)
	pca := mat.PCA(x, 2)
	proj := pca.Project(x)

	centroid := map[string][2]float64{}
	counts := map[string]float64{}
	for i, l := range labels {
		c := centroid[l]
		c[0] += proj.At(i, 0)
		c[1] += proj.At(i, 1)
		centroid[l] = c
		counts[l]++
	}
	for l, c := range centroid {
		centroid[l] = [2]float64{c[0] / counts[l], c[1] / counts[l]}
	}
	spread := map[string]float64{}
	for i, l := range labels {
		c := centroid[l]
		dx, dy := proj.At(i, 0)-c[0], proj.At(i, 1)-c[1]
		spread[l] += math.Sqrt(dx*dx + dy*dy)
	}
	s.printf("%-6s %10s %10s %12s\n", "Config", "PC1", "PC2", "Spread")
	for _, l := range sortedKeys(centroid) {
		s.printf("%-6s %10.2f %10.2f %12.2f\n",
			l, centroid[l][0], centroid[l][1], spread[l]/counts[l])
	}
	// Between-centroid distance vs within-config spread.
	var between, pairs float64
	keys := sortedKeys(centroid)
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			a, b := centroid[keys[i]], centroid[keys[j]]
			between += math.Hypot(a[0]-b[0], a[1]-b[1])
			pairs++
		}
	}
	var within, n float64
	for _, l := range keys {
		within += spread[l] / counts[l]
		n++
	}
	ratio := (between / pairs) / (within / n)
	s.printf("explained variance: PC1=%.2f PC2=%.2f\n", pca.Explained[0], pca.Explained[1])
	s.printf("between-centroid / within-config distance ratio: %.3f (<~1 => distributions overlap)\n", ratio)
	return nil
}

// Fig6 reproduces the dedicated-vs-transferred model comparison on Tate:
// per configuration, the accuracy of a model trained on that exact
// configuration against the single transferred model trained on Syn-1 plus
// two random partitions.
func (s *Suite) Fig6() error {
	s.printf("\n== Fig. 6: dedicated vs transferred model accuracy (tate) ==\n")
	design := "tate"
	transferred, err := s.framework(design, false)
	if err != nil {
		return err
	}
	s.printf("%-6s | %-23s | %-23s\n", "", "Tier-predictor acc", "MIV-pinpointer recall")
	s.printf("%-6s | %10s %12s | %10s %12s\n", "Config", "Dedicated", "Transferred", "Dedicated", "Transferred")
	for _, cfg := range dataset.Configs() {
		b, err := s.bundle(design, cfg, 0)
		if err != nil {
			return err
		}
		train := b.Generate(dataset.SampleOptions{
			Count: s.TrainCount, Seed: s.Seed + 500 + hash(string(cfg)), MIVFraction: 0.2,
			Workers: s.Workers, Obs: s.Obs,
		})
		dedicated, err := core.Train(train, core.TrainOptions{Seed: s.Seed + 501, Workers: s.Workers, Obs: s.Obs})
		if err != nil {
			return err
		}
		test, _, err := s.testSamples(design, cfg, false)
		if err != nil {
			return err
		}
		dTier, dMIV := evalModels(dedicated, test)
		tTier, tMIV := evalModels(transferred, test)
		s.printf("%-6s | %9.1f%% %11.1f%% | %9.1f%% %11.1f%%\n",
			cfg, dTier*100, tTier*100, dMIV*100, tMIV*100)
	}
	return nil
}

// evalModels measures tier accuracy and MIV recall of a framework on a
// sample set.
func evalModels(fw *core.Framework, test []dataset.Sample) (tierAcc, mivRecall float64) {
	tierOK, tierN := 0, 0
	mivOK, mivN := 0, 0
	for _, smp := range test {
		if smp.TierLabel >= 0 {
			tierN++
			if tier, _ := fw.Tier.PredictTier(smp.SG); tier == smp.TierLabel {
				tierOK++
			}
			continue
		}
		if len(smp.Faults) != 1 {
			continue
		}
		mivN++
		for _, g := range fw.MIV.PredictFaultyMIVs(smp.SG) {
			if g == smp.Sites[0] {
				mivOK++
				break
			}
		}
	}
	if tierN > 0 {
		tierAcc = float64(tierOK) / float64(tierN)
	}
	if mivN > 0 {
		mivRecall = float64(mivOK) / float64(mivN)
	}
	return
}

// RuntimeBreakdown holds the Table-IX measurements for one design.
type RuntimeBreakdown struct {
	FeatureConstruction time.Duration
	GNNTraining         time.Duration
	TATPG               time.Duration
	TGNN                time.Duration
	TUpdate             time.Duration
	FHIATPG             float64
	FHIUpdated          float64
}

// measureRuntime produces the deployment runtime breakdown on the Syn-2
// test set of a design (the paper's Table IX / Fig. 9 setting).
func (s *Suite) measureRuntime(design string) (*RuntimeBreakdown, error) {
	rb := &RuntimeBreakdown{}
	b, err := s.bundle(design, dataset.Syn2, 0)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	g2 := hgraph.Build(b.Arch, s.Workers)
	rb.FeatureConstruction = time.Since(t0)
	_ = g2

	train, err := s.trainSamples(design, false)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	fw, err := core.Train(train, core.TrainOptions{Seed: s.Seed + 600, Workers: s.Workers, Obs: s.Obs})
	if err != nil {
		return nil, err
	}
	rb.GNNTraining = time.Since(t0)

	test, _, err := s.testSamples(design, dataset.Syn2, false)
	if err != nil {
		return nil, err
	}
	pol := fw.PolicyFor(b)
	var fhiA, fhiU, nA, nU float64
	for _, smp := range test {
		t0 = time.Now()
		rep := b.Diag.Diagnose(smp.Log)
		rb.TATPG += time.Since(t0)

		t0 = time.Now()
		sg := b.Graph.Backtrace(smp.Log, b.Diag.Result())
		fw.Tier.PredictTier(sg)
		fw.MIV.PredictFaultyMIVs(sg)
		rb.TGNN += time.Since(t0)

		t0 = time.Now()
		out := pol.Apply(rep, sg)
		rb.TUpdate += time.Since(t0)

		if f := rep.FirstHit(b.Netlist, smp.Faults); f > 0 {
			fhiA += float64(f)
			nA++
		}
		if f := out.Report.FirstHit(b.Netlist, smp.Faults); f > 0 {
			fhiU += float64(f)
			nU++
		}
	}
	if nA > 0 {
		rb.FHIATPG = fhiA / nA
	}
	if nU > 0 {
		rb.FHIUpdated = fhiU / nU
	}
	return rb, nil
}

// Table9 prints the runtime analysis (paper Table IX and Fig. 9): training
// phase (feature construction, GNN training) and deployment (T_ATPG,
// T_GNN, T_update over the Syn-2 test set).
func (s *Suite) Table9() error {
	s.printf("\n== Table IX / Fig. 9: runtime analysis (workers=%d) ==\n", par.Workers(s.Workers))
	s.printf("%-9s | %12s %12s | %10s %10s %10s\n",
		"Design", "FeatConstr", "GNNTrain", "T_ATPG", "T_GNN", "T_update")
	for _, d := range s.Designs {
		rb, err := s.measureRuntime(d)
		if err != nil {
			return err
		}
		s.runtime[d] = rb
		s.printf("%-9s | %12s %12s | %10s %10s %10s\n",
			d, rb.FeatureConstruction.Round(time.Millisecond),
			rb.GNNTraining.Round(time.Millisecond),
			rb.TATPG.Round(time.Millisecond),
			rb.TGNN.Round(time.Millisecond),
			rb.TUpdate.Round(time.Millisecond))
	}
	return nil
}

// Fig10 prints the PFA time saved by the framework, T_diff =
// T_total(ATPG) - T_total(proposed), as a function of the per-candidate
// PFA cost x (paper Fig. 10).
func (s *Suite) Fig10() error {
	s.printf("\n== Fig. 10: PFA time saved, T_diff(x) seconds ==\n")
	xs := []float64{1, 5, 10, 50, 100}
	s.printf("%-9s |", "Design")
	for _, x := range xs {
		s.printf(" x=%4.0fs |", x)
	}
	s.printf("\n")
	for _, d := range s.Designs {
		rb, ok := s.runtime[d]
		if !ok {
			var err error
			rb, err = s.measureRuntime(d)
			if err != nil {
				return err
			}
			s.runtime[d] = rb
		}
		tATPG := rb.TATPG.Seconds()
		tProp := math.Max(rb.TATPG.Seconds(), rb.TGNN.Seconds()) + rb.TUpdate.Seconds()
		s.printf("%-9s |", d)
		for _, x := range xs {
			diff := (tATPG + rb.FHIATPG*x*float64(s.TestCount)) -
				(tProp + rb.FHIUpdated*x*float64(s.TestCount))
			s.printf(" %7.1f |", diff)
		}
		s.printf("\n")
	}
	return nil
}
