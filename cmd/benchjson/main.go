// Command benchjson converts `go test -bench` output into the repository's
// performance-trajectory format (BENCH.json) and optionally enforces
// performance gates on it.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson \
//	    -label mylabel -baseline BENCH.json -out BENCH.json \
//	    -require-zero-allocs BenchmarkTierInference \
//	    -require-speedup BenchmarkTierInference=3.0
//
// The tool reads benchmark result lines from stdin (other lines — goos,
// pkg, PASS — are used for run metadata or ignored), merges them with an
// optional baseline file's entries, and writes a single JSON document. Each
// tracked change appends one labeled run, so the checked-in BENCH.json is a
// trajectory the CI can diff and gate on.
//
// Exit status is non-zero when a -require-zero-allocs or -require-speedup
// gate fails, making the tool usable directly as a CI check.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labeled benchmark run (typically one PR).
type Run struct {
	Label   string   `json:"label"`
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// Trajectory is the top-level BENCH.json document.
type Trajectory struct {
	Runs []Run `json:"runs"`
}

func main() {
	var (
		label      = flag.String("label", "run", "label for this run in the trajectory")
		baseline   = flag.String("baseline", "", "existing trajectory (BENCH.json) whose runs are carried forward")
		out        = flag.String("out", "", "output file (default stdout)")
		zeroAllocs multiFlag
		speedups   multiFlag
	)
	flag.Var(&zeroAllocs, "require-zero-allocs", "benchmark name that must report 0 allocs/op (repeatable)")
	flag.Var(&speedups, "require-speedup", "name=factor: ns/op must improve by at least factor vs the first baseline run (repeatable)")
	flag.Parse()

	run := Run{Label: *label}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			run.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				run.Results = append(run.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("read stdin: %v", err)
	}
	if len(run.Results) == 0 {
		fatalf("no benchmark result lines on stdin")
	}
	sort.Slice(run.Results, func(i, j int) bool { return run.Results[i].Name < run.Results[j].Name })

	var traj Trajectory
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		if err := json.Unmarshal(data, &traj); err != nil {
			fatalf("baseline %s: %v", *baseline, err)
		}
	}
	traj.Runs = append(traj.Runs, run)

	failed := false
	for _, name := range zeroAllocs {
		r := findResult(run.Results, name)
		if r == nil {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s: benchmark not found in input\n", name)
			failed = true
			continue
		}
		if r.AllocsPerOp == nil {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s: no allocs/op (run with -benchmem)\n", name)
			failed = true
			continue
		}
		if *r.AllocsPerOp != 0 {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s: %.0f allocs/op, want 0\n", name, *r.AllocsPerOp)
			failed = true
		}
	}
	for _, spec := range speedups {
		name, factorStr, ok := strings.Cut(spec, "=")
		if !ok {
			fatalf("-require-speedup %q: want name=factor", spec)
		}
		factor, err := strconv.ParseFloat(factorStr, 64)
		if err != nil {
			fatalf("-require-speedup %q: %v", spec, err)
		}
		cur := findResult(run.Results, name)
		if cur == nil {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s: benchmark not found in input\n", name)
			failed = true
			continue
		}
		var base *Result
		if len(traj.Runs) > 1 {
			base = findResult(traj.Runs[0].Results, name)
		}
		if base == nil {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s: no baseline measurement\n", name)
			failed = true
			continue
		}
		got := base.NsPerOp / cur.NsPerOp
		if got < factor {
			fmt.Fprintf(os.Stderr, "benchjson: gate %s: %.2fx vs baseline, want >= %.2fx\n", name, got, factor)
			failed = true
		}
	}

	data, err := json.MarshalIndent(&traj, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	if failed {
		os.Exit(1)
	}
}

// parseBenchLine parses one `BenchmarkName-8   123   456 ns/op   7 B/op
// 8 allocs/op   9.1 custom/metric` line. Sub-benchmark names keep their
// full path; the -N GOMAXPROCS suffix is stripped.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

func findResult(rs []Result, name string) *Result {
	for i := range rs {
		if rs[i].Name == name {
			return &rs[i]
		}
	}
	return nil
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
