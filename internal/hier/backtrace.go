package hier

import (
	"context"
	"fmt"
	"time"

	"repro/internal/failurelog"
	"repro/internal/hgraph"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
)

// BacktraceCtx extracts the GNN input subgraph for the log, running the
// per-response fan-in walk over the pin-level heterogeneous graph as a
// region frontier walk (see package doc). The picked node set, and
// therefore the subgraph handed to the GNN stack, is bitwise-identical to
// the monolithic hgraph.BacktraceCtx for any region and worker count.
func (e *Engine) BacktraceCtx(ctx context.Context, log *failurelog.Log) (*hgraph.Subgraph, error) {
	defer obs.Start(ctx, "hier.backtrace").End()
	g := e.graph
	res := e.diag.Result()
	log, _ = log.Sanitized(res.N, g.Arch().NumObs(log.Compacted))
	if log.Empty() {
		return &hgraph.Subgraph{X: mat.New(0, hgraph.FeatureDim)}, nil
	}
	s := e.pinScratch.Get().(*walkScratch)
	defer e.pinScratch.Put(s)
	s.reset()

	responses := int32(0)
	for _, f := range log.Fails {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hier: backtrace: %w", err)
		}
		s.stamp++
		st := s.stamp
		responses++
		pattern := int(f.Pattern)
		// Seeds: the data-pin Topnode behind each failing observation. The
		// pin graph encodes cone boundaries structurally (flop and PI
		// output nodes have no fan-in edges), so unlike the gate walk there
		// is no seed-expansion special case.
		for r := range s.frontier {
			s.frontier[r] = s.frontier[r][:0]
		}
		for _, obsGate := range g.Arch().ObsGates(int(f.Obs), log.Compacted) {
			top := g.InNode[obsGate][0]
			r := e.pinRegion[top]
			s.frontier[r] = append(s.frontier[r], top)
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
					if g.NodeTransitions(res, v, pattern) {
						s.count[v]++
					}
					for _, u := range g.Fanin[v] {
						ur := e.pinRegion[u]
						if ur != r {
							exits[ur] = append(exits[ur], u)
							continue
						}
						if s.mark[u] != st {
							s.mark[u] = st
							queue = append(queue, u)
						}
					}
				}
				s.queues[r] = queue
				s.regionNs[r] += float64(time.Since(t0).Nanoseconds())
			})
			if err != nil {
				return nil, fmt.Errorf("hier: backtrace: %w", err)
			}
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

	e.observeRegions(ctx, s)
	obs.Add(ctx, "m3d_hier_backtraces_total", 1)
	return g.SubgraphFromVotes(s.count, int(responses)), nil
}
