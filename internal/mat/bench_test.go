package mat

// Micro-benchmarks for the dense kernels on GNN-hot-path shapes
// (256-node subgraph, 32-wide hidden layers). The *Materialized variants
// measure what the seed code did — explicit transposes and temporaries —
// so the BENCH.json trajectory shows the kernel-level win directly.

import (
	"math/rand"
	"testing"
)

func benchPair(r, k, c int) (a, b *Matrix) {
	rng := rand.New(rand.NewSource(1))
	a, b = New(r, k), New(k, c)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return a, b
}

func BenchmarkMulInto(b *testing.B) {
	x, w := benchPair(256, 32, 32)
	dst := New(256, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, w)
	}
}

// BenchmarkMulTInto is dz·Wᵀ without materializing the transpose.
func BenchmarkMulTInto(b *testing.B) {
	dz, _ := benchPair(256, 32, 1)
	w := New(13, 32) // W is in×out; dz·Wᵀ walks it row-major
	rng := rand.New(rand.NewSource(2))
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	dst := New(256, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTInto(dst, dz, w)
	}
}

// BenchmarkMulTMaterialized is the seed formulation of the same product:
// allocate W.T(), then a fresh output from Mul.
func BenchmarkMulTMaterialized(b *testing.B) {
	dz, _ := benchPair(256, 32, 1)
	w := New(13, 32)
	rng := rand.New(rand.NewSource(2))
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(dz, w.T())
	}
}

// BenchmarkAddMulATInto is gradW += mᵀ·dz via the scatter kernel.
func BenchmarkAddMulATInto(b *testing.B) {
	m, _ := benchPair(256, 13, 1)
	dz := New(256, 32)
	rng := rand.New(rand.NewSource(3))
	for i := range dz.Data {
		dz.Data[i] = rng.NormFloat64()
	}
	dst := New(13, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		AddMulATInto(dst, m, dz)
	}
}

// BenchmarkAddMulATMaterialized is the seed formulation: materialize m.T(),
// multiply into a fresh matrix, add in place.
func BenchmarkAddMulATMaterialized(b *testing.B) {
	m, _ := benchPair(256, 13, 1)
	dz := New(256, 32)
	rng := rand.New(rand.NewSource(3))
	for i := range dz.Data {
		dz.Data[i] = rng.NormFloat64()
	}
	dst := New(13, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		dst.AddInPlace(Mul(m.T(), dz))
	}
}
