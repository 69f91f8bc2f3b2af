// Package cone counts the paper's back-trace votes (Section III, Fig. 3)
// in one reverse-topological sweep per failure log over the union of the
// failing observations' fan-in cones.
//
// A node gets one vote for every failing (pattern, observation) response
// in whose fan-in cone it transitions under the pattern. The responses
// group into entries, one per failing observation and duplicate layer as
// failurelog.(*Log).ByObservation stacks them. Each gate the sweep
// reaches carries the set of entries whose cone holds it, OR-ed in from
// its sinks; popping gates highest topological position first makes a
// gate's set final before it is read. A node driven by gate d whose cone
// set is S then has
//
//	Σ over failing patterns p on which d transitions of |S ∩ entries failing on p|
//
// votes: the same integer as one cone walk per response, summed in a
// different order.
package cone

import (
	"math/bits"

	"repro/internal/failurelog"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Sweep is one failure log's sweep. The caller seeds entry sets with Or,
// pops gates with Pop, counts a node's votes with Count and passes a
// popped gate's set on to its fan-in with Or; which gates a set reaches
// is the caller's rule, as long as it only passes sets to gates lower in
// topological order than the one popped. A Sweep belongs to one call:
// its scratch is sized by the union of the cones, not by the netlist
// times the observations.
type Sweep struct {
	v1, v2 []uint64 // good-machine launch and capture values, gate-major
	order  []int    // the netlist's topological order
	pos    []int32  // by gate: position in order

	obs   []failurelog.ObsFails
	first []int32  // observation i's entries are first[i] to first[i+1]-1
	words int      // entry-set width in words
	fail  []uint64 // patterns failing at any observation
	rank  []int32  // by pattern word: failing patterns in the lower words
	byPat []uint64 // row r: the entries failing on the r-th failing pattern
	seed  []uint64 // Observation's result

	slot  []int32  // by gate: 1 + its row in sets, 0 before it is reached
	sets  []uint64 // entry sets, words wide, in the order gates are reached
	rows  int32    // rows in sets
	queue []uint64 // bitmap over the topological positions of reached, unpopped gates
	cur   int      // no queued bit lies above word cur
}

// NewSweep prepares the sweep of a sanitized log (every fail addresses a
// pattern of res and an observation of the design) over netlist n, which
// must be levelized; res comes from Simulator.Run on n, which levelized it.
func NewSweep(n *netlist.Netlist, log *failurelog.Log, res *sim.Result) *Sweep {
	pw := (res.N + 63) / 64
	obs := log.ByObservation(pw)
	s := &Sweep{
		v1:    res.FlatV1(),
		v2:    res.FlatV2(),
		order: n.TopoOrder(),
		pos:   n.TopoPos(),
		obs:   obs,
		first: make([]int32, len(obs)+1),
		fail:  make([]uint64, pw),
		rank:  make([]int32, pw),
		slot:  make([]int32, len(n.Gates)),
		queue: make([]uint64, (len(n.Gates)+63)/64),
		cur:   -1,
	}
	for i, o := range obs {
		s.first[i+1] = s.first[i] + int32(len(o.Mask)/pw)
		for w, m := range o.Mask[:pw] { // layer 0 holds every pattern the observation fails on
			s.fail[w] |= m
		}
	}
	s.words = (int(s.first[len(obs)]) + 63) / 64
	failing := int32(0)
	for w, f := range s.fail {
		s.rank[w] = failing
		failing += int32(bits.OnesCount64(f))
	}
	s.byPat = make([]uint64, int(failing)*s.words)
	for i, o := range obs {
		for l := 0; l*pw < len(o.Mask); l++ {
			e := int(s.first[i]) + l
			for w, m := range o.Mask[l*pw : (l+1)*pw] {
				for ; m != 0; m &= m - 1 {
					s.entriesFailing(w, bits.TrailingZeros64(m))[e/64] |= 1 << (e % 64)
				}
			}
		}
	}
	s.seed = make([]uint64, s.words)
	return s
}

// entriesFailing returns the set of entries failing on pattern 64*w+b,
// which must fail somewhere in the log.
func (s *Sweep) entriesFailing(w, b int) []uint64 {
	r := int(s.rank[w]) + bits.OnesCount64(s.fail[w]&(1<<b-1))
	return s.byPat[r*s.words : (r+1)*s.words]
}

// NumObs returns the number of failing observations.
func (s *Sweep) NumObs() int { return len(s.obs) }

// Observation returns the i-th failing observation, in ascending order,
// and the set of its entries. The set is valid until the next call.
func (s *Sweep) Observation(i int) (obs int32, set []uint64) {
	clear(s.seed)
	for e := s.first[i]; e < s.first[i+1]; e++ {
		s.seed[e/64] |= 1 << (e % 64)
	}
	return s.obs[i].Obs, s.seed
}

// Fail returns the patterns that fail at any observation, as a mask over
// the pattern words.
func (s *Sweep) Fail() []uint64 { return s.fail }

// Or adds set to gate's entry set, queueing the gate when it is first
// reached. The gate must not have been popped.
func (s *Sweep) Or(gate int, set []uint64) {
	if r := int(s.slot[gate]); r > 0 {
		dst := s.sets[(r-1)*s.words : r*s.words]
		for k, b := range set {
			dst[k] |= b
		}
		return
	}
	s.sets = append(s.sets, set...)
	s.rows++
	s.slot[gate] = s.rows
	p := s.pos[gate]
	s.queue[p>>6] |= 1 << (p & 63)
	s.cur = max(s.cur, int(p>>6))
}

// Pop removes the queued gate highest in topological order and returns it
// with its entry set, or -1 when the queue is empty. The set is final:
// every sink of the gate sits higher and has been popped.
func (s *Sweep) Pop() (gate int, set []uint64) {
	for ; s.cur >= 0; s.cur-- {
		if b := s.queue[s.cur]; b != 0 {
			hi := 63 - bits.LeadingZeros64(b)
			s.queue[s.cur] = b &^ (1 << hi)
			gate = s.order[s.cur<<6|hi]
			r := int(s.slot[gate])
			return gate, s.sets[(r-1)*s.words : r*s.words]
		}
	}
	return -1, nil
}

// Count returns the votes of a node driven by gate whose cone set is set:
// for each failing pattern the gate transitions under, the entries in set
// that fail on it.
func (s *Sweep) Count(gate int, set []uint64) int32 {
	pw := len(s.fail)
	v1, v2 := s.v1[gate*pw:][:pw], s.v2[gate*pw:][:pw]
	n := 0
	for w, f := range s.fail {
		for t := (v1[w] ^ v2[w]) & f; t != 0; t &= t - 1 {
			for k, b := range s.entriesFailing(w, bits.TrailingZeros64(t)) {
				n += bits.OnesCount64(b & set[k])
			}
		}
	}
	return int32(n)
}
