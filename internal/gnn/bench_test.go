package gnn

// Micro-benchmarks for the SpMM kernels and the arena-backed forward pass.
// Together with the top-level suite benches these feed the BENCH.json
// performance trajectory (scripts/bench_json.sh).

import (
	"math/rand"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/mat"
)

func benchGraph(n int) *hgraph.Subgraph {
	rng := rand.New(rand.NewSource(1))
	sg := &hgraph.Subgraph{
		Nodes:  make([]int32, n),
		Adj:    make([][]int32, n),
		X:      mat.New(n, hgraph.FeatureDim),
		TierOf: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		sg.Nodes[i] = int32(i)
		if i > 0 {
			p := int32(rng.Intn(i))
			sg.Adj[i] = append(sg.Adj[i], p)
			sg.Adj[p] = append(sg.Adj[p], int32(i))
		}
		row := sg.X.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return sg
}

// BenchmarkAdjNormBuild measures CSR construction for a 256-node subgraph.
func BenchmarkAdjNormBuild(b *testing.B) {
	sg := benchGraph(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewAdjNorm(sg)
	}
}

// BenchmarkCSRApply measures one Â·X SpMM (256 nodes, 32-wide features)
// into a pre-sized destination — the aggregation step of every GCN layer.
func BenchmarkCSRApply(b *testing.B) {
	sg := benchGraph(256)
	adj := NewAdjNorm(sg)
	x := mat.New(256, 32)
	rng := rand.New(rand.NewSource(2))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dst := mat.New(256, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj.ApplyInto(dst, x)
	}
}

// BenchmarkCSRApplyT measures the transpose SpMM (backprop direction).
func BenchmarkCSRApplyT(b *testing.B) {
	sg := benchGraph(256)
	adj := NewAdjNorm(sg)
	x := mat.New(256, 32)
	rng := rand.New(rand.NewSource(3))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dst := mat.New(256, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj.ApplyTInto(dst, x)
	}
}

// BenchmarkGraphForwardArena measures a full graph-head forward pass
// (scale → 2×GCN → mean-pool → dense → softmax) on the pooled-arena path;
// steady state must be zero allocations.
func BenchmarkGraphForwardArena(b *testing.B) {
	sg := benchGraph(256)
	m := NewModel(Config{Head: GraphHead, Input: hgraph.FeatureDim, Hidden: []int{32, 32}, Output: 2, Seed: 5})
	m.Scale = FitScaler([]*mat.Matrix{sg.X})
	m.PredictArgmax(sg) // warm adjacency cache and arena pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictArgmax(sg)
	}
}

// BenchmarkArchInference measures the steady-state graph-head forward pass
// of every registry architecture on the same 256-node subgraph. Every
// architecture runs on the pooled-arena path and must be allocation-free
// (TestRegistryInferenceAllocFree guards this); the time column is the
// zoo's per-aggregator serving cost.
func BenchmarkArchInference(b *testing.B) {
	sg := benchGraph(256)
	for _, kind := range Architectures() {
		spec := MustParseArch(string(kind))
		b.Run(string(kind), func(b *testing.B) {
			m := NewModel(Config{Head: GraphHead, Input: hgraph.FeatureDim, Hidden: []int{32, 32}, Output: 2, Seed: 5, Arch: spec})
			m.Scale = FitScaler([]*mat.Matrix{sg.X})
			m.PredictArgmax(sg) // warm adjacency cache and arena pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictArgmax(sg)
			}
		})
	}
}

// BenchmarkArchFit measures a short training run per registry architecture
// (two epochs over the same synthetic dataset, single worker) — the
// relative cost of each aggregator's backward pass.
func BenchmarkArchFit(b *testing.B) {
	ds := makeDataset(11, 24)
	for _, kind := range Architectures() {
		spec := MustParseArch(string(kind))
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := NewModel(Config{Head: GraphHead, Input: hgraph.FeatureDim, Hidden: []int{16, 16}, Output: 2, Seed: 7, Arch: spec})
				if _, err := m.Fit(ds, TrainConfig{Epochs: 2, Batch: 8, LR: 0.01, Seed: 9, FitScaler: true, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphBackwardArena measures one training-sample forward+backward
// on a replica's private arena; steady state must be zero allocations.
func BenchmarkGraphBackwardArena(b *testing.B) {
	sg := benchGraph(256)
	m := NewModel(Config{Head: GraphHead, Input: hgraph.FeatureDim, Hidden: []int{32, 32}, Output: 2, Seed: 6})
	m.Scale = FitScaler([]*mat.Matrix{sg.X})
	r := m.replica()
	adj := AdjNormFor(sg)
	step := func() {
		r.zeroGrads()
		r.ar.reset()
		h := r.embed(adj, sg.X, r.ar, true)
		pooled := r.ar.vec(h.Cols)
		h.ColMeansInto(pooled)
		logits := r.ar.vec(len(r.Out.B))
		r.Out.forwardInto(logits, pooled, true)
		crossEntropyGradInto(logits, logits, 1, 1)
		r.backwardGraph(adj, sg.NumNodes(), logits, r.ar)
	}
	step() // warm the private arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
