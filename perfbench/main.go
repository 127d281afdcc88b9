// Command perfbench is the repository's end-to-end benchmark. For one
// workload and seed it boots the real stack in this process over loopback
// (origin, delta-server over the engine, delta clients) and runs:
//
//   - the served pass: the timed request stream sent open-loop at the
//     workload's rate over two connections, for latency and CPU per
//     request;
//   - the replay pass: the same stream sent one request at a time on a
//     fresh stack, quiescing the engine after each and driving its clock
//     from the schedule, for wire bytes, storage and per-layer counts that
//     repeat exactly for a seed;
//   - with --trace 1, a traced served pass on a third stack that times
//     the layer boundaries, reads the engine's stage spans and profiles
//     CPU, next to an untraced one.
//
// Every document and base-file is checked against the origin's own
// rendering after the timed window. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload shared-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: personalized-churn | shared-hot | diurnal-spill")
		seed    = fs.Int64("seed", 1, "request-stream and site seed")
		seconds = fs.Float64("seconds", 10, "length of the timed window in seconds")
		trace   = fs.Int("trace", 0, "1 = report per-layer metrics from a traced run; 0 = end-to-end metrics")
		workDir = fs.String("workdir", ".bench_build/perfbench/work", "directory for spill files")
		outDir  = fs.String("outdir", ".bench_build/perfbench", "directory the traced run writes its per-layer report to")
		rate    = fs.Float64("rate", -1, "served-pass rate in requests/s, for finding capacity: 0 = closed-loop (default: the workload's rate)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *rate < 0 {
		*rate = w.rate
	}
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, rate: *rate,
		conns: 2, setups: 3, workDir: *workDir, log: &logger{w: stdout},
	}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := writeReport(path, res.metrics); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "per-layer report written to %s\n", path)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	rate    float64 // served-pass rate; 0 = closed-loop
	conns   int     // served-pass connections and worker goroutines
	setups  int     // set-ups timed per run; setup_s is their median
	workDir string
	log     *logger
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int
	metrics           map[string]metric
}

func (r result) json() (string, error) {
	b, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	return string(b), err
}

// logger prints progress lines and the first failures of a run.
type logger struct {
	w        io.Writer
	failures int
}

func (l *logger) printf(format string, args ...any) { fmt.Fprintf(l.w, format+"\n", args...) }

func (l *logger) failure(format string, args ...any) {
	l.failures++
	if l.failures <= 10 {
		l.printf("FAIL "+format, args...)
	}
}

func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_kb"):
		return "KiB"
	case strings.HasSuffix(name, "_bytes_per_req"):
		return "B"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_per_url"):
		return "probes"
	}
	return "count"
}

func writeReport(path string, ms map[string]metric) error {
	b, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// refreshErrors counts the requests whose document arrived but whose
// base-file refresh failed. They are logged, not failed: the document is
// checked like any other, and the missed refresh shows in wire bytes.
func refreshErrors(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.refreshErr != nil {
			n++
		}
	}
	return n
}

// tailMix describes how full responses and base-file fetches are spread
// over all requests and over the slowest 1%.
func tailMix(outs []outcome) string {
	lats := durations(outs, func(o outcome) time.Duration { return o.lat })
	p99 := quantile(lats, 0.99)
	var n, full, based, tn, tfull, tbased int
	for _, o := range outs {
		n++
		full += b2i(o.full)
		based += b2i(o.based)
		if o.lat > p99 {
			tn++
			tfull += b2i(o.full)
			tbased += b2i(o.based)
		}
	}
	return fmt.Sprintf("full %d/%d, base fetch %d/%d; above p99: full %d/%d, base fetch %d/%d",
		full, n, based, n, tfull, tn, tbased, tn)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func durations(outs []outcome, f func(outcome) time.Duration) []time.Duration {
	ds := make([]time.Duration, len(outs))
	for i, o := range outs {
		ds[i] = f(o)
	}
	return ds
}

// quantile is the q-quantile of ds by linear interpolation between the
// closest ranks. ds is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	lo := int(pos)
	if lo+1 >= len(ds) {
		return ds[lo]
	}
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[lo+1]-ds[lo]))
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
