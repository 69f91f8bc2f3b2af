package hgraph

import (
	"math"
	"reflect"
	"testing"
)

// serialTopedgeStats is the Topedge statistics' reference formulation:
// one BFS per Topnode in Topnode order, accumulating in float64.
func serialTopedgeStats(g *Graph) (ntop, dMean, dStd, mMean, mStd []float64) {
	n := g.Netlist()
	N := g.NumNodes
	ntop = make([]float64, N)
	sumD, sumD2 := make([]float64, N), make([]float64, N)
	sumM, sumM2 := make([]float64, N), make([]float64, N)
	dist, mivs := make([]int32, N), make([]int32, N)
	seen := make([]int, N)
	tops := append(append([]int32(nil), g.TopFF...), g.TopPO...)
	for t, top := range tops {
		queue := []int32{top}
		seen[top] = t + 1
		dist[top], mivs[top] = 0, 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			d, m := float64(dist[v]), float64(mivs[v])
			ntop[v]++
			sumD[v] += d
			sumD2[v] += d * d
			sumM[v] += m
			sumM2[v] += m * m
			for _, u := range g.Fanin[v] {
				if seen[u] == t+1 {
					continue
				}
				seen[u] = t + 1
				dist[u] = dist[v] + 1
				mivs[u] = mivs[v]
				if n.Gates[g.NodeGate[u]].IsMIV {
					mivs[u]++
				}
				queue = append(queue, u)
			}
		}
	}
	dMean, dStd = make([]float64, N), make([]float64, N)
	mMean, mStd = make([]float64, N), make([]float64, N)
	for v := range ntop {
		c := ntop[v]
		if c == 0 {
			continue
		}
		dMean[v] = sumD[v] / c
		mMean[v] = sumM[v] / c
		dStd[v] = math.Sqrt(math.Max(0, sumD2[v]/c-dMean[v]*dMean[v]))
		mStd[v] = math.Sqrt(math.Max(0, sumM2[v]/c-mMean[v]*mMean[v]))
	}
	return
}

// TestTopedgeStatsWorkerInvariant builds the graph of a partitioned design
// with MIVs at 1, 2 and 8 workers and requires each to equal, bit for
// bit, the graph with serially accumulated float64 Topedge statistics.
func TestTopedgeStatsWorkerInvariant(t *testing.T) {
	f := getFixture(t)
	ref := *Build(f.arch, 1)
	ref.NTop, ref.DMean, ref.DStd, ref.MIVMean, ref.MIVStd = serialTopedgeStats(&ref)
	onPath := 0
	for _, m := range ref.MIVMean {
		if m > 0 {
			onPath++
		}
	}
	if onPath == 0 {
		t.Fatal("no node has an MIV on its Topedge paths; the test needs a design with MIVs")
	}
	for _, w := range []int{1, 2, 8} {
		if g := Build(f.arch, w); !reflect.DeepEqual(g, &ref) {
			t.Fatalf("graph built with %d workers differs from the serial reference", w)
		}
	}
}
