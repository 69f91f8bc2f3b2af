// Package failurelog defines the tester failure log: the list of failing
// (pattern, observation) bits a defective chip produces on automatic test
// equipment. The log, together with the netlist and pattern set, is the
// only input the diagnosis framework consumes — matching the paper's claim
// that no extra diagnostic test data is required.
package failurelog

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/scan"
)

// Log is one chip's failure log.
type Log struct {
	// Design names the circuit under diagnosis.
	Design string
	// Compacted records whether responses passed through the EDT compactor.
	Compacted bool
	// Truncated marks a log cut short by the tester's fail memory; a
	// diagnosis engine must then ignore predicted failures beyond the last
	// recorded pattern.
	Truncated bool
	// Meta carries optional tester provenance. Zero-valued fields are not
	// serialized, so logs without provenance stay byte-identical to the
	// pre-Meta format.
	Meta Meta
	// Fails lists failing bits sorted by (pattern, observation).
	Fails []scan.Failure
}

// Meta is per-log tester provenance: which wafer and lot the die came from
// and when the tester recorded the failures. Streaming ingestion keys its
// windowed aggregation (per-lot drift, wafer histograms) on these fields;
// batch diagnosis ignores them entirely.
type Meta struct {
	// Wafer identifies the wafer the die was cut from (tester wafer ID; a
	// single whitespace-free token).
	Wafer string
	// Lot identifies the production lot (a single whitespace-free token).
	Lot string
	// TesterTime is the tester's timestamp for the log in Unix
	// milliseconds; 0 means unrecorded.
	TesterTime int64
}

// IsZero reports whether no provenance field is set.
func (m Meta) IsZero() bool { return m.Wafer == "" && m.Lot == "" && m.TesterTime == 0 }

// LastPattern returns the highest failing pattern ID, or -1 for an empty
// log.
func (l *Log) LastPattern() int32 {
	last := int32(-1)
	for _, f := range l.Fails {
		if f.Pattern > last {
			last = f.Pattern
		}
	}
	return last
}

// ObsFails is one observation point's share of a failure log: the patterns
// it fails on, as bitmasks.
type ObsFails struct {
	// Obs is the observation index.
	Obs int32
	// Mask stacks one words-wide layer per multiplicity: layer k has a
	// pattern's bit set when the log lists (pattern, Obs) more than k
	// times. A log without duplicate fails has one layer, and the bits of
	// all layers together number the fails at Obs.
	Mask []uint64
}

// ByObservation groups the fails by observation point into failing-pattern
// masks words wide, in ascending observation order. Every pattern index
// must lie in [0, 64*words): sanitize first.
func (l *Log) ByObservation(words int) []ObsFails {
	fails := slices.Clone(l.Fails)
	slices.SortFunc(fails, func(a, b scan.Failure) int {
		if a.Obs != b.Obs {
			return cmp.Compare(a.Obs, b.Obs)
		}
		return cmp.Compare(a.Pattern, b.Pattern)
	})
	// Sorted, the copies of one (pattern, obs) fail are adjacent: copy k
	// (dup[i] = k) sets its bit in layer k.
	dup := make([]int, len(fails))
	var out []ObsFails
	var layers []int // per entry of out
	total := 0
	for i, f := range fails {
		if i > 0 && f == fails[i-1] {
			dup[i] = dup[i-1] + 1
		}
		if i == 0 || f.Obs != fails[i-1].Obs {
			out = append(out, ObsFails{Obs: f.Obs})
			layers = append(layers, 0)
		}
		if k := len(out) - 1; dup[i] == layers[k] {
			layers[k]++
			total++
		}
	}
	backing := make([]uint64, total*words)
	for k := range out {
		n := layers[k] * words
		out[k].Mask, backing = backing[:n:n], backing[n:]
	}
	k := -1
	for i, f := range fails {
		if i == 0 || f.Obs != fails[i-1].Obs {
			k++
		}
		out[k].Mask[dup[i]*words+int(f.Pattern)/64] |= 1 << (uint(f.Pattern) % 64)
	}
	return out
}

// Empty reports whether the log contains no failures (the chip passed).
func (l *Log) Empty() bool { return len(l.Fails) == 0 }

// Sanitized returns the log with every fail whose pattern or observation
// index lies outside [0,patterns) x [0,numObs) removed, plus the number of
// fails dropped. Real parsed logs can reference patterns or channels the
// diagnosis setup does not have (mismatched pattern sets, corrupt lines);
// consumers that index simulation results by these values must sanitize
// first. When nothing is out of range the receiver itself is returned.
func (l *Log) Sanitized(patterns, numObs int) (*Log, int) {
	bad := 0
	for _, f := range l.Fails {
		if f.Pattern < 0 || int(f.Pattern) >= patterns || f.Obs < 0 || int(f.Obs) >= numObs {
			bad++
		}
	}
	if bad == 0 {
		return l, 0
	}
	out := &Log{Design: l.Design, Compacted: l.Compacted, Truncated: l.Truncated, Meta: l.Meta}
	out.Fails = make([]scan.Failure, 0, len(l.Fails)-bad)
	for _, f := range l.Fails {
		if f.Pattern < 0 || int(f.Pattern) >= patterns || f.Obs < 0 || int(f.Obs) >= numObs {
			continue
		}
		out.Fails = append(out.Fails, f)
	}
	return out, bad
}

// Write serializes the log in a simple line format:
//
//	FAILLOG <design> compacted=<bool> [truncated=true] [wafer=<id>] [lot=<id>] [ts=<ms>]
//	<pattern> <obs>
//	...
//
// The truncated flag and the Meta fields are only emitted when set, so
// logs without them are byte-identical to the original two-flag format.
func Write(w io.Writer, l *Log) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "FAILLOG %s compacted=%t", l.Design, l.Compacted)
	if l.Truncated {
		fmt.Fprintf(bw, " truncated=true")
	}
	if l.Meta.Wafer != "" {
		fmt.Fprintf(bw, " wafer=%s", l.Meta.Wafer)
	}
	if l.Meta.Lot != "" {
		fmt.Fprintf(bw, " lot=%s", l.Meta.Lot)
	}
	if l.Meta.TesterTime != 0 {
		fmt.Fprintf(bw, " ts=%d", l.Meta.TesterTime)
	}
	fmt.Fprintln(bw)
	for _, f := range l.Fails {
		fmt.Fprintf(bw, "%d %d\n", f.Pattern, f.Obs)
	}
	return bw.Flush()
}

// Read parses the format produced by Write. Old two-flag headers (without
// the truncated flag) are accepted and read as Truncated=false.
func Read(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("failurelog: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) < 3 || header[0] != "FAILLOG" {
		return nil, fmt.Errorf("failurelog: bad header %q", sc.Text())
	}
	l := &Log{Design: header[1]}
	switch header[2] {
	case "compacted=true":
		l.Compacted = true
	case "compacted=false":
		l.Compacted = false
	default:
		return nil, fmt.Errorf("failurelog: bad header flag %q", header[2])
	}
	for _, field := range header[3:] {
		key, val, found := strings.Cut(field, "=")
		if !found {
			return nil, fmt.Errorf("failurelog: bad header flag %q", field)
		}
		switch key {
		case "truncated":
			switch val {
			case "true":
				l.Truncated = true
			case "false":
				l.Truncated = false
			default:
				return nil, fmt.Errorf("failurelog: bad header flag %q", field)
			}
		case "wafer":
			if val == "" {
				return nil, fmt.Errorf("failurelog: bad header flag %q", field)
			}
			l.Meta.Wafer = val
		case "lot":
			if val == "" {
				return nil, fmt.Errorf("failurelog: bad header flag %q", field)
			}
			l.Meta.Lot = val
		case "ts":
			ts, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("failurelog: bad header flag %q", field)
			}
			l.Meta.TesterTime = ts
		default:
			return nil, fmt.Errorf("failurelog: bad header flag %q", field)
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var p, o int32
		if _, err := fmt.Sscanf(line, "%d %d", &p, &o); err != nil {
			return nil, fmt.Errorf("failurelog: bad line %q: %w", line, err)
		}
		l.Fails = append(l.Fails, scan.Failure{Pattern: p, Obs: o})
	}
	return l, sc.Err()
}
