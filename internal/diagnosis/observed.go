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

// tally adds one observation point's predicted failures to the counts:
// predicted and observed is a TFSF, predicted but not observed a TPSF.
func (o *Observed) tally(c *Candidate, pred []uint64, obs int32) {
	seen := o.mask(obs)
	for w, valid := range o.valid {
		p := pred[w] & valid
		c.TFSF += bits.OnesCount64(p & seen[w])
		c.TPSF += bits.OnesCount64(p &^ seen[w])
	}
}

// ScoreCandidate fault-simulates one candidate and compares its predicted
// failures with the observed log. Under EDT compaction the predicted cell
// differences are XOR-folded per compacted observation first, so an even
// number of flipped cells aliases to a pass exactly as on the tester. It
// makes no allocations once the engine is warm, and is safe for concurrent
// use on forked engines sharing one Observed.
func (d *Engine) ScoreCandidate(cand faultsim.Fault, o *Observed) Candidate {
	c := Candidate{Fault: cand}
	diffs := d.fsim.DiffObs(d.res, cand)
	if !o.compacted {
		for _, od := range diffs {
			o.tally(&c, od.Diff, d.obsIndex[0][od.Obs])
		}
	} else {
		d.foldEDT(diffs, o.words)
		for _, obs := range d.touched {
			o.tally(&c, d.fold[int(obs)*o.words:int(obs+1)*o.words], obs)
			d.folded[obs] = false
		}
	}
	c.TFSP = o.fails - c.TFSF
	c.Score = float64(c.TFSF) - d.opt.TFSPWeight*float64(c.TFSP) - d.opt.TPSFWeight*float64(c.TPSF)
	return c
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
