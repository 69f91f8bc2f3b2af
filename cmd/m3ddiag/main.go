// Command m3ddiag is the end-to-end diagnosis CLI: it builds (or rebuilds)
// a benchmark configuration, trains the GNN framework (or loads a saved
// one), and diagnoses failure logs, printing the pruned and reordered
// report with the tier-level prediction.
//
// Usage:
//
//	m3ddiag -design aes -train-samples 200 -diagnose-samples 5
//	m3ddiag -design aes -save-model aes.fw
//	m3ddiag -design aes -load-model aes.fw -diagnose-samples 10
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/artifact"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/version"
)

func main() {
	design := flag.String("design", "aes", "benchmark: aes, tate, netcard, leon3mp")
	config := flag.String("config", "syn1", "configuration to diagnose")
	scale := flag.Float64("scale", 1.0, "design size multiplier")
	seed := flag.Int64("seed", 1, "global seed")
	trainSamples := flag.Int("train-samples", 200, "training set size")
	archName := flag.String("arch", "gcn", "GNN architecture to train: gcn, sage-mean, sage-max, gat, resgcn; optional widths like sage-mean:64,64 (ignored with -load-model: the artifact carries its spec)")
	diagSamples := flag.Int("diagnose-samples", 5, "injected chips to diagnose")
	compacted := flag.Bool("compacted", false, "EDT response compaction")
	saveModel := flag.String("save-model", "", "write the trained framework to this file")
	loadModel := flag.String("load-model", "", "load a framework instead of training")
	workers := flag.Int("workers", 0, "worker goroutines (0 = all cores); results are identical for any value")
	fastATPG := flag.Bool("fast-atpg", false, "short collapsed-list ATPG without top-up, for paper-scale smoke runs")
	adjCache := flag.Int("adj-cache", 0, "cap the normalized-adjacency cache at N operators (0 = auto: 256 for paper-scale designs, pinned per subgraph otherwise)")
	noiseLevel := flag.Float64("noise", 0, "tester-noise severity in [0,1]; 0 disables the noise model")
	checkpoint := flag.String("checkpoint", "", "directory for training checkpoints; resumes if one exists")
	metrics := flag.Bool("metrics", false, "print collected metrics (data generation, training) to stderr on exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		version.Print("m3ddiag")
		return
	}

	// Unknown architecture names are a hard error, never a silent fallback.
	arch, err := gnn.ParseArch(*archName)
	if err != nil {
		fatal("-arch: %v", err)
	}

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal("profiles: %v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "m3ddiag: profiles: %v\n", err)
		}
	}()

	// A single process-wide registry; nil (all instrumentation free) unless
	// -metrics asked for the dump.
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		defer obs.Dump(os.Stderr, reg)
	}

	p, ok := gen.ProfileByName(*design)
	if !ok {
		fatal("unknown design %q", *design)
	}
	if *scale != 1.0 {
		p = p.Scaled(*scale)
	}
	// Bound the adjacency-operator memoization on paper-scale runs: a
	// stream of mostly-unique 100K+-node subgraphs would otherwise pin an
	// operator on every one for its lifetime.
	if *adjCache > 0 {
		gnn.LimitAdjCache(*adjCache)
	} else if p.TargetGates >= gen.LargeGateThreshold {
		gnn.LimitAdjCache(256)
	}

	bopt := dataset.BuildOptions{Seed: *seed, Workers: *workers}
	if *fastATPG {
		bopt.ATPG = atpg.Quick()
	}
	fmt.Printf("building %s/%s ...\n", *design, *config)
	buildStart := time.Now()
	b, err := dataset.Build(p, dataset.ConfigName(*config), bopt)
	if err != nil {
		fatal("build: %v", err)
	}
	st, _ := b.Netlist.ComputeStats()
	fmt.Printf("%d gates, %d MIVs, %d patterns, TDF coverage %.1f%%\n",
		st.Gates, st.MIVs, b.ATPG.Patterns.N, b.ATPG.Coverage()*100)
	// Timing goes to stderr so two runs of the same build stay
	// byte-identical on stdout.
	fmt.Fprintf(os.Stderr, "m3ddiag: built in %.1fs\n", time.Since(buildStart).Seconds())

	var fw *core.Framework
	if *loadModel != "" {
		// Sealed files (written by -save-model) verify their checksum
		// footer; plain files from older versions still load as-is.
		payload, sealed, err := artifact.ReadMaybeSealed(*loadModel)
		if err != nil {
			fatal("load model: %v", err)
		}
		fw, err = core.Load(bytes.NewReader(payload))
		if err != nil {
			fatal("load model: %v", err)
		}
		integrity := "checksum verified"
		if !sealed {
			integrity = "legacy unsealed file"
		}
		fmt.Printf("loaded framework from %s (T_P=%.3f, %s)\n", *loadModel, fw.TP, integrity)
	} else {
		fmt.Printf("training on %d samples ...\n", *trainSamples)
		train := b.Generate(dataset.SampleOptions{
			Count: *trainSamples, Seed: *seed + 2, Compacted: *compacted, MIVFraction: 0.2,
			Workers: *workers, Noise: noise.ModelAt(*noiseLevel, *seed+7), Obs: reg,
		})
		fw, err = core.Train(train, core.TrainOptions{
			Seed: *seed + 3, Workers: *workers, Arch: arch, CheckpointDir: *checkpoint, Obs: reg,
		})
		if err != nil {
			fatal("train: %v", err)
		}
		fmt.Printf("trained (T_P=%.3f)\n", fw.TP)
	}
	if *saveModel != "" {
		// Atomic temp+rename with a checksum footer: a crash or Ctrl-C
		// mid-save never leaves a truncated model behind.
		if err := artifact.WriteSealed(*saveModel, func(w io.Writer) error { return fw.Save(w) }); err != nil {
			fatal("save model: %v", err)
		}
		fmt.Printf("saved framework to %s (sealed, checksummed)\n", *saveModel)
	}

	test := b.Generate(dataset.SampleOptions{
		Count: *diagSamples, Seed: *seed + 9, Compacted: *compacted, MIVFraction: 0.2,
		Workers: *workers, Noise: noise.ModelAt(*noiseLevel, *seed+11), Obs: reg,
	})
	for i, smp := range test {
		diagStart := time.Now()
		rep, out := fw.Diagnose(b, smp.Log)
		fmt.Fprintf(os.Stderr, "m3ddiag: chip %d diagnosed in %.2fs\n", i, time.Since(diagStart).Seconds())
		tier := "bottom"
		if out.PredictedTier == 1 {
			tier = "top"
		}
		action := "reordered"
		if out.Pruned {
			action = "pruned"
		}
		fmt.Printf("\nchip %d: injected %v, %d failing bits\n", i, smp.Faults, len(smp.Log.Fails))
		fmt.Printf("  predicted faulty tier: %s (confidence %.3f, %s)\n", tier, out.Confidence, action)
		if len(out.FaultyMIVs) > 0 {
			fmt.Printf("  suspected faulty MIVs: %v\n", out.FaultyMIVs)
		}
		fmt.Printf("  ATPG report: %d candidates (hit at %d); final report: %d candidates (hit at %d)\n",
			rep.Resolution(), rep.FirstHit(b.Netlist, smp.Faults),
			out.Report.Resolution(), out.Report.FirstHit(b.Netlist, smp.Faults))
		for r, c := range out.Report.Candidates {
			if r >= 5 {
				fmt.Printf("    ... %d more\n", out.Report.Resolution()-5)
				break
			}
			g := b.Netlist.Gates[c.Fault.SiteGate(b.Netlist)]
			kind := "gate"
			if g.IsMIV {
				kind = "MIV"
			}
			fmt.Printf("    #%d %s %s (%s, tier %d) score %.1f [TFSF %d / TFSP %d / TPSF %d]\n",
				r+1, c.Fault, g.Name, kind, g.Tier, c.Score, c.TFSF, c.TFSP, c.TPSF)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "m3ddiag: "+format+"\n", args...)
	os.Exit(1)
}
