// Package hier implements hierarchical partitioned diagnosis for
// paper-scale (100K–500K gate) monolithic-3D designs, following the
// GROOT recipe from PAPERS.md: cut the design graph into balanced
// regions, process each region independently in parallel, and re-grow
// the cut edges so cross-boundary behavior is not lost.
//
// Both heavy per-log stages are restructured around the region cut:
//
//   - Suspect voting (the ATPG-diagnosis candidate extraction) walks the
//     gate-level fan-in cones of each failing response as a frontier BFS
//     over regions: every region expands the frontier nodes it owns in
//     parallel, and edges that cross a region boundary are handed off to
//     the owning region as the next round's frontier — the cut-edge
//     re-growth that re-admits candidate fault sites whose cones span
//     regions. The candidate pool then goes through the diagnosis
//     engine's own scoring stage, which scores in parallel on its pooled
//     forks.
//   - Back-tracing runs the same region frontier walk over the pin-level
//     heterogeneous graph, then extracts one global subgraph for a single
//     scoring pass through the flat-CSR GNN stack.
//
// The monolithic and hierarchical paths are bitwise-equivalent: a BFS
// visited set is a pure function of the seed set and the adjacency —
// never of the traversal schedule — so the per-response vote counts, the
// extracted candidates, the scored report, and the back-traced subgraph
// are identical to the monolithic engine's for every worker count and
// region count. The equivalence is asserted by tests and the CI smoke.
// What changes is the traversal: the monolithic engine walks each failing
// observation's cone once on one goroutine, while the hierarchical engine
// walks each failing response's cone region by region, in parallel.
// Whether that wins at paper scale has not been measured.
package hier

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/hgraph"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
)

// AutoGateThreshold is the design size (total netlist gates, MIVs
// included) above which core.DiagnoseCtx routes diagnosis through the
// hierarchical engine automatically. Bitwise equivalence makes the switch
// safe at any size. The threshold is a guess: neither engine memoizes
// cones, and the two have not been timed against each other at paper
// scale.
const AutoGateThreshold = 50_000

// Options configures a hierarchical engine.
type Options struct {
	// Regions is the number of graph regions (0 = auto: one region per
	// TargetRegionGates, clamped to [2, 64]).
	Regions int
	// TargetRegionGates sizes auto region selection. Default 24000.
	TargetRegionGates int
	// Workers bounds the parallelism of the per-log region walks (0 = all
	// cores). Candidate scoring runs on the diagnosis engine's fork pool,
	// which bounds itself by GOMAXPROCS. Reports are identical for any
	// value.
	Workers int
	// Partition tunes the region partitioner.
	Partition partition.RegionOptions
	// Obs, when non-nil, receives engine-level gauges (region count, cut
	// size) at construction; per-request metrics flow through the request
	// context's registry.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.TargetRegionGates == 0 {
		o.TargetRegionGates = 24_000
	}
	return o
}

// RegionsFor returns the region count the options select for a design
// with the given gate count.
func (o Options) RegionsFor(gates int) int {
	if o.Regions > 0 {
		return o.Regions
	}
	o = o.withDefaults()
	k := (gates + o.TargetRegionGates - 1) / o.TargetRegionGates
	if k < 2 {
		k = 2
	}
	if k > 64 {
		k = 64
	}
	return k
}

// Stats describes the partition a hierarchical engine runs on.
type Stats struct {
	Regions     int   // region count
	Sizes       []int // gates per region
	GateCut     int   // nets spanning more than one region
	PinCutEdges int   // pin-graph fan-in edges crossing a region boundary
}

// Engine is a hierarchical diagnosis engine for one design. It wraps the
// monolithic diagnosis engine and heterogeneous graph, adding the region
// partition and the parallel region-walk machinery. Safe for concurrent
// use: every DiagnoseCtx/BacktraceCtx call draws private walk scratch
// from internal pools, and scores on the diagnosis engine's pooled forks.
type Engine struct {
	diag  *diagnosis.Engine
	graph *hgraph.Graph
	nl    *netlist.Netlist
	opt   Options

	numRegions int
	gateRegion []int32 // gate ID -> owning region
	pinRegion  []int32 // pin node -> owning region
	stats      Stats

	gateScratch sync.Pool // *walkScratch sized for the gate graph
	pinScratch  sync.Pool // *walkScratch sized for the pin graph
}

// New partitions the design into regions and builds the engine.
func New(diag *diagnosis.Engine, graph *hgraph.Graph, opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	nl := graph.Netlist()
	k := opt.RegionsFor(len(nl.Gates))
	popt := opt.Partition
	popt.Workers = opt.Workers
	gateRegion, err := partition.AssignRegions(nl, k, popt)
	if err != nil {
		return nil, fmt.Errorf("hier: %w", err)
	}
	e := &Engine{
		diag:       diag,
		graph:      graph,
		nl:         nl,
		opt:        opt,
		numRegions: k,
		gateRegion: gateRegion,
	}
	e.pinRegion = make([]int32, graph.NumNodes)
	for v := 0; v < graph.NumNodes; v++ {
		e.pinRegion[v] = gateRegion[graph.NodeGate[v]]
	}
	pinCut := 0
	for v := 0; v < graph.NumNodes; v++ {
		for _, u := range graph.Fanin[v] {
			if e.pinRegion[u] != e.pinRegion[v] {
				pinCut++
			}
		}
	}
	e.stats = Stats{
		Regions:     k,
		Sizes:       partition.RegionSizes(gateRegion, k),
		GateCut:     partition.RegionCut(nl, gateRegion),
		PinCutEdges: pinCut,
	}
	e.gateScratch.New = func() any { return newWalkScratch(len(nl.Gates), k) }
	e.pinScratch.New = func() any { return newWalkScratch(graph.NumNodes, k) }
	if r := opt.Obs; r != nil {
		r.Describe("m3d_hier_regions", "Regions the hierarchical engine partitioned the design into.")
		r.Describe("m3d_hier_cut_edges", "Pin-graph fan-in edges crossing a region boundary.")
		r.Gauge("m3d_hier_regions").Set(float64(k))
		r.Gauge("m3d_hier_cut_edges").Set(float64(pinCut))
	}
	return e, nil
}

// Stats returns the engine's partition statistics.
func (e *Engine) Stats() Stats { return e.stats }

// walkScratch is the per-call state of one region frontier walk.
type walkScratch struct {
	count    []int32   // votes per node
	mark     []int32   // response stamp per node (visited set)
	seed     []int32   // response stamp per node (seed set; gate walk only)
	frontier [][]int32 // per-region current frontier
	next     [][]int32 // per-region next frontier
	queues   [][]int32 // per-region BFS queue
	exits    [][]int32 // flattened [region][region] hand-off lists
	regionNs []float64 // per-region accumulated walk time (ns)
	stamp    int32
}

func newWalkScratch(n, k int) *walkScratch {
	s := &walkScratch{
		count:    make([]int32, n),
		mark:     make([]int32, n),
		seed:     make([]int32, n),
		frontier: make([][]int32, k),
		next:     make([][]int32, k),
		queues:   make([][]int32, k),
		exits:    make([][]int32, k*k),
		regionNs: make([]float64, k),
	}
	for i := range s.mark {
		s.mark[i] = -1
		s.seed[i] = -1
	}
	return s
}

// reset prepares the scratch for a new call: votes cleared, per-region
// lists emptied. mark/seed stay valid because stamps only grow.
func (s *walkScratch) reset() {
	for i := range s.count {
		s.count[i] = 0
	}
	for r := range s.frontier {
		s.frontier[r] = s.frontier[r][:0]
		s.next[r] = s.next[r][:0]
		s.regionNs[r] = 0
	}
}

// DiagnoseCtx produces the ranked single-fault diagnosis report for the
// log, bitwise-identical to the monolithic Engine.DiagnoseCtx: the suspect
// votes come from the region frontier walk, and the candidate pool then
// goes through the diagnosis engine's own scoring, refinement and ranking.
func (e *Engine) DiagnoseCtx(ctx context.Context, log *failurelog.Log) (*diagnosis.Report, error) {
	defer obs.Start(ctx, "hier.diagnose").End()
	log = e.diag.Sanitize(log)
	if log.Empty() {
		return &diagnosis.Report{Design: log.Design, Compacted: log.Compacted}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("hier: diagnose: %w", err)
	}

	// Per-response suspect votes via the region frontier walk.
	span := obs.Start(ctx, "hier.votes")
	s := e.gateScratch.Get().(*walkScratch)
	s.reset()
	responses, err := e.gateVotes(ctx, s, log)
	if err != nil {
		e.gateScratch.Put(s)
		span.End()
		return nil, err
	}
	cands := e.diag.CandidatesFromVotes(log, s.count, responses)
	e.observeRegions(ctx, s)
	e.gateScratch.Put(s)
	span.End()
	obs.Add(ctx, "m3d_hier_candidates_total", int64(len(cands)))

	rep, err := e.diag.ReportFromCandidates(ctx, log, cands)
	if err != nil {
		return nil, fmt.Errorf("hier: diagnose: %w", err)
	}
	obs.Add(ctx, "m3d_hier_diagnoses_total", 1)
	return rep, nil
}

// gateVotes accumulates per-gate suspect votes: one vote per failing
// response in whose observation cone the gate transitions. Equivalent to
// the monolithic engine's cached-cone scan, computed as a region
// frontier walk instead.
func (e *Engine) gateVotes(ctx context.Context, s *walkScratch, log *failurelog.Log) (responses int, err error) {
	res := e.diag.Result()
	gates := e.nl.Gates
	for _, f := range log.Fails {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("hier: votes: %w", err)
		}
		s.stamp++
		st := s.stamp
		responses++
		pattern := int(f.Pattern)
		// Seeds: capture gates of the failing observation. Seeds expand
		// even when they are combinational sources (a flop's own fan-in
		// cone starts at its data input), matching netlist.FaninCone.
		seeds := e.diag.CaptureGates(f, log.Compacted)
		for r := range s.frontier {
			s.frontier[r] = s.frontier[r][:0]
		}
		for _, g := range seeds {
			s.seed[g] = st
			r := e.gateRegion[g]
			s.frontier[r] = append(s.frontier[r], int32(g))
		}
		handoffs := int64(0)
		for {
			active := activeRegions(s.frontier)
			if len(active) == 0 {
				break
			}
			err := par.ForEachCtx(ctx, e.opt.Workers, len(active), func(ai int) {
				r := active[ai]
				t0 := time.Now()
				queue := s.queues[r][:0]
				exits := s.exits[int(r)*e.numRegions : (int(r)+1)*e.numRegions]
				for i := range exits {
					exits[i] = exits[i][:0]
				}
				for _, u := range s.frontier[r] {
					if s.mark[u] != st {
						s.mark[u] = st
						queue = append(queue, u)
					}
				}
				for qi := 0; qi < len(queue); qi++ {
					v := queue[qi]
					if res.HasTransition(int(v), pattern) {
						s.count[v]++
					}
					g := gates[v]
					if g.Type.IsSource() && s.seed[v] != st {
						continue // cone stops at PIs and flop outputs
					}
					for _, fi := range g.Fanin {
						fr := e.gateRegion[fi]
						if fr != r {
							exits[fr] = append(exits[fr], int32(fi))
							continue
						}
						if s.mark[fi] != st {
							s.mark[fi] = int32(st)
							queue = append(queue, int32(fi))
						}
					}
				}
				s.queues[r] = queue
				s.regionNs[r] += float64(time.Since(t0).Nanoseconds())
			})
			if err != nil {
				return 0, fmt.Errorf("hier: votes: %w", err)
			}
			// Cut-edge re-growth: hand exported frontier nodes to their
			// owning regions, in region order. Duplicates are resolved by
			// the mark check when the owner consumes them.
			for r := range s.next {
				s.next[r] = s.next[r][:0]
			}
			for _, r := range active {
				exits := s.exits[int(r)*e.numRegions : (int(r)+1)*e.numRegions]
				for tr, list := range exits {
					s.next[tr] = append(s.next[tr], list...)
					handoffs += int64(len(list))
				}
			}
			s.frontier, s.next = s.next, s.frontier
		}
		obs.Add(ctx, "m3d_hier_regrown_edges_total", handoffs)
	}
	return responses, nil
}

// activeRegions lists regions with a non-empty frontier, in region order.
func activeRegions(frontier [][]int32) []int32 {
	var active []int32
	for r, f := range frontier {
		if len(f) > 0 {
			active = append(active, int32(r))
		}
	}
	return active
}

// observeRegions reports per-region walk latency into the request
// registry (no-op without one).
func (e *Engine) observeRegions(ctx context.Context, s *walkScratch) {
	reg := obs.RegistryFrom(ctx)
	if reg == nil {
		return
	}
	reg.Describe("m3d_hier_region_seconds", "Per-region frontier-walk time per diagnosis call.")
	for _, ns := range s.regionNs {
		reg.Histogram("m3d_hier_region_seconds", nil).Observe(ns / 1e9)
	}
}
