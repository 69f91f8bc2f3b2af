package diagnosis

import (
	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/scan"
)

// This file exposes the individual stages of DiagnoseCtx to the
// hierarchical diagnosis engine (internal/hier), which re-implements only
// the suspect-vote computation (region-partitioned, parallel) and must
// reuse every other stage verbatim so that its reports stay
// bitwise-identical to the monolithic path. Each hook is a thin wrapper
// over the unexported implementation that DiagnoseCtx itself calls. The
// stages after extraction are one exported call, ReportFromCandidates.

// Sanitize drops fails the engine's pattern set and scan architecture
// cannot address (see sanitize).
func (d *Engine) Sanitize(log *failurelog.Log) *failurelog.Log { return d.sanitize(log) }

// CandidatesFromVotes turns per-gate suspect vote counts (one vote per
// failing response in whose observation cone the gate transitions) into
// the vote-ranked candidate pool, exactly as the monolithic extraction
// stage does. count must be indexed by gate ID; responses is the number
// of failing responses that voted.
func (d *Engine) CandidatesFromVotes(log *failurelog.Log, count []int32, responses int) []faultsim.Fault {
	return d.extractCandidates(log, count, responses)
}

// CaptureGates returns the deduplicated capture gates behind one failing
// observation, in ObsGates order — the seeds of the suspect-vote cone
// walk for that response.
func (d *Engine) CaptureGates(f scan.Failure, compacted bool) []int {
	obsGates := d.arch.ObsGates(int(f.Obs), compacted)
	out := make([]int, 0, len(obsGates))
	seen := make(map[int]bool, len(obsGates))
	for _, g := range obsGates {
		c := d.arch.CaptureGate(g)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
