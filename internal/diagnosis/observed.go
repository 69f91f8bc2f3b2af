package diagnosis

import (
	"math/bits"

	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/sim"
)

// Observed is one failure log encoded for bit-parallel scoring: for every
// observation point, the bitmask of patterns on which the tester saw it
// fail. It is immutable once built, so one Observed may be shared by
// concurrent scorers on forked engines.
type Observed struct {
	compacted bool
	// words is the mask width per observation point. It covers patterns up
	// to the truncation horizon only: later patterns are never evidence.
	words int
	// valid marks, per word, the patterns that count: below the pattern
	// count and at or before the horizon.
	valid []uint64
	masks []uint64 // [obs*words+w]: failing patterns of observation obs
	fails int      // distinct failing (pattern, observation) bits
}

// NewObserved encodes a failure log for ScoreCandidate. Fails this engine
// cannot address are dropped first (see Sanitize). When the tester's fail
// memory truncated the log, predicted failures after the last recorded
// pattern are not evidence against a candidate, so the masks end there.
func (d *Engine) NewObserved(log *failurelog.Log) *Observed {
	log = d.sanitize(log)
	patterns := d.ps.N
	if h := log.LastPattern(); log.Truncated && h >= 0 {
		patterns = int(h) + 1
	}
	o := &Observed{compacted: log.Compacted, words: (patterns + 63) / 64}
	o.valid = make([]uint64, o.words)
	for w := range o.valid {
		o.valid[w] = ^uint64(0)
	}
	if o.words > 0 {
		o.valid[o.words-1] = sim.TailMask(patterns)
	}
	o.masks = make([]uint64, d.arch.NumObs(log.Compacted)*o.words)
	for _, f := range log.Fails {
		i := int(f.Obs)*o.words + int(f.Pattern)/64
		bit := uint64(1) << (uint(f.Pattern) % 64)
		if o.masks[i]&bit == 0 {
			o.masks[i] |= bit
			o.fails++
		}
	}
	return o
}

// mask returns the failing-pattern words of one observation point.
func (o *Observed) mask(obs int32) []uint64 {
	return o.masks[int(obs)*o.words : int(obs+1)*o.words]
}

// tally adds one observation point's predicted failures on the given
// pattern lanes to the counts: predicted and observed is a TFSF, predicted
// but not observed a TPSF.
func (o *Observed) tally(c *Candidate, pred, lanes []uint64, obs int32) {
	seen := o.mask(obs)
	for w, valid := range o.valid {
		p := pred[w] & lanes[w] & valid
		c.TFSF += bits.OnesCount64(p & seen[w])
		c.TPSF += bits.OnesCount64(p &^ seen[w])
	}
}

// ScoreCandidate fault-simulates one candidate and compares its predicted
// failures with the observed log: the scoring stage's group of one. Under
// EDT compaction the predicted cell differences are XOR-folded per
// compacted observation first, so an even number of flipped cells aliases
// to a pass exactly as on the tester. It makes no allocations once the
// engine is warm, and is safe for concurrent use on forked engines sharing
// one Observed.
func (d *Engine) ScoreCandidate(cand faultsim.Fault, o *Observed) Candidate {
	cands, members := [1]faultsim.Fault{cand}, [1]int32{0}
	var out [1]Candidate
	d.scoreGroup(cands[:], members[:], o, out[:])
	return out[0]
}

// scoreGroup scores the candidates cands[i], i in members, into out[i].
// The members share one stem, or are a single observation-local candidate.
// The stem is propagated once, flipped on the union of the members' lanes,
// and each member is tallied against that one diff masked to the lanes on
// which it flips the stem: patterns are independent lanes, so that is the
// member's own diff. Under EDT the diff is folded once, since
// fold(D) & lanes = fold(D & lanes). It reports whether it propagated.
func (d *Engine) scoreGroup(cands []faultsim.Fault, members []int32, o *Observed, out []Candidate) bool {
	words := d.ps.Words()
	if need := (len(members) + 1) * words; cap(d.lanes) < need {
		d.lanes = make([]uint64, need)
	}
	union := d.lanes[:words]
	clear(union)
	lanes := func(k int) []uint64 { return d.lanes[(k+1)*words : (k+2)*words] }
	stem, flipped := -1, uint64(0)
	for k, i := range members {
		l := lanes(k)
		if stem = d.fsim.StemFlip(d.res, cands[i], l); stem < 0 {
			for w := range l {
				l[w] = ^uint64(0) // an observation-local diff needs no mask
			}
		}
		for w, v := range l {
			union[w] |= v
			flipped |= v
		}
	}
	var diffs []faultsim.ObsDiff
	propagated := stem >= 0 && flipped != 0
	switch {
	case stem < 0:
		diffs = d.fsim.DiffObs(d.res, cands[members[0]])
	case propagated:
		diffs = d.fsim.DiffStem(d.res, stem, union)
	}
	if o.compacted {
		d.foldEDT(diffs, o.words)
	}
	for k, i := range members {
		c := Candidate{Fault: cands[i]}
		l := lanes(k)
		if !o.compacted {
			for _, od := range diffs {
				o.tally(&c, od.Diff, l, d.obsIndex[0][od.Obs])
			}
		} else {
			for _, obs := range d.touched {
				o.tally(&c, d.fold[int(obs)*o.words:int(obs+1)*o.words], l, obs)
			}
		}
		c.TFSP = o.fails - c.TFSF
		c.Score = float64(c.TFSF) - d.opt.TFSPWeight*float64(c.TFSP) - d.opt.TPSFWeight*float64(c.TPSF)
		out[i] = c
	}
	if o.compacted {
		for _, obs := range d.touched {
			d.folded[obs] = false
		}
	}
	return propagated
}

// foldEDT XORs the first words of every observation diff into the
// engine's per-compacted-observation scratch and lists the touched
// observations in d.touched.
func (d *Engine) foldEDT(diffs []faultsim.ObsDiff, words int) {
	if d.fold == nil {
		numObs := d.arch.NumObs(true)
		d.fold = make([]uint64, numObs*d.ps.Words())
		d.folded = make([]bool, numObs)
	}
	d.touched = d.touched[:0]
	for _, od := range diffs {
		obs := d.obsIndex[1][od.Obs]
		acc := d.fold[int(obs)*words : int(obs+1)*words]
		if d.folded[obs] {
			for w := range acc {
				acc[w] ^= od.Diff[w]
			}
			continue
		}
		copy(acc, od.Diff)
		d.folded[obs] = true
		d.touched = append(d.touched, obs)
	}
}
