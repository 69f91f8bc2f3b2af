package experiment

import (
	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/hgraph"
	"repro/internal/noise"
	"repro/internal/par"
)

// TableNoise prints the tester-noise robustness experiment: diagnosis
// accuracy and resolution versus noise severity, for the raw ATPG reports
// and the GNN framework, across the four evaluated configurations.
//
// The clean test chips are generated once per configuration (the same
// cached sets Tables V/VI use); each noise level then perturbs those exact
// failure logs with the seeded tester-imperfection model, so every row
// measures the same defects seen through a progressively worse tester.
// Level 0 is the identity and reproduces the clean-pipeline numbers.
func (s *Suite) TableNoise() error {
	s.printf("\n== Noise robustness: localization vs tester-noise level ==\n")
	s.printf("%-9s %-6s %6s | %8s %8s | %8s %8s %6s | %6s %6s\n",
		"Design", "Config", "Level",
		"ATPGAcc", "MeanRes", "GNNAcc", "MeanRes", "TierL", "Empty", "Trunc")
	for _, d := range s.Designs {
		fw, err := s.framework(d, false)
		if err != nil {
			return err
		}
		for _, cfg := range dataset.Configs() {
			test, b, err := s.testSamples(d, cfg, false)
			if err != nil {
				return err
			}
			patterns := b.ATPG.Patterns.N
			numObs := b.Arch.NumObs(false)
			for _, level := range s.NoiseLevels {
				model := noise.ModelAt(level, s.Seed+900)
				noisy := make([]*failurelog.Log, len(test))
				emptied, truncated := 0, 0
				for i, smp := range test {
					noisy[i] = model.Apply(smp.Log, uint64(i), patterns, numObs)
					if noisy[i].Empty() {
						emptied++
					}
					if noisy[i].Truncated {
						truncated++
					}
				}
				reps, sgs := s.diagnoseAndBacktrace(b, noisy)
				pol := fw.PolicyFor(b)
				var atpgSt, gnnSt evalState
				for i, smp := range test {
					atpgSt.add(b.Netlist, reps[i], smp)
					out := pol.Apply(reps[i], sgs[i])
					gnnSt.add(b.Netlist, out.Report, smp)
					if smp.TierLabel >= 0 {
						gnnSt.addTier(out.PredictedTier == smp.TierLabel)
					}
				}
				am, gm := atpgSt.metrics(), gnnSt.metrics()
				s.printf("%-9s %-6s %6.2f | %7.1f%% %8.1f | %7.1f%% %8.1f %5.1f%% | %6d %6d\n",
					d, cfg, level,
					am.Accuracy*100, am.MeanRes,
					gm.Accuracy*100, gm.MeanRes, gm.TierLocal*100,
					emptied, truncated)
			}
		}
	}
	return nil
}

// diagnoseAndBacktrace runs ATPG diagnosis and subgraph back-tracing for a
// set of (noisy) failure logs, fanned out over workers that share b.Diag
// (every diagnosis runs on a pooled fork). GNN inference stays with the
// caller: model forward passes share backprop caches and are not safe to
// run concurrently.
func (s *Suite) diagnoseAndBacktrace(b *dataset.Bundle, logs []*failurelog.Log) ([]*diagnosis.Report, []*hgraph.Subgraph) {
	type result struct {
		rep *diagnosis.Report
		sg  *hgraph.Subgraph
	}
	results := par.Map(s.Workers, len(logs), func(i int) result {
		return result{
			rep: b.Diag.Diagnose(logs[i]),
			sg:  b.Graph.Backtrace(logs[i], b.Diag.Result()),
		}
	})
	reps := make([]*diagnosis.Report, len(logs))
	sgs := make([]*hgraph.Subgraph, len(logs))
	for i, r := range results {
		reps[i] = r.rep
		sgs[i] = r.sg
	}
	return reps, sgs
}
