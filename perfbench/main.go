// Command perfbench is the repository's benchmark. It runs one named
// workload through the library's public API from a single process with
// one client, checks the outputs, and prints every metric by name with its
// unit and sample count; the last line of standard output is a JSON
// summary. See README.md for the workloads, the metrics and what each
// layer's figures should move.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload serve-real --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics and writes
// its spans to .bench_build/spans/. A failed check prints the failures,
// reports "correct": false and exits with status 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"gillis/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-real, batch-real, replay-burst or mesh-zipf")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the serving phase in host seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o := options{
		workload:  *name,
		seed:      *seed,
		seconds:   *seconds,
		traced:    *traceFlag == 1,
		setupReps: 3,
		setupMinS: 1,
		spansPath: fmt.Sprintf(".bench_build/spans/%s-seed%d.json.gz", *name, *seed),
	}
	res, err := runBench(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

// report prints the run's context, every metric with unit, sample count
// and note, any failed checks, and the closing JSON line.
func report(w io.Writer, o options, res *result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "perfbench %s\n", o.workload)
	for _, kv := range res.context {
		fmt.Fprintf(bw, "  %-12s %s\n", kv[0], kv[1])
	}
	fmt.Fprintf(bw, "%-34s %14s %-8s %8s  %s\n", "metric", "value", "unit", "n", "note")
	metrics := map[string]any{}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			res.fail("metric %s is not finite", m.name)
			m.value = 0
		}
		fmt.Fprintf(bw, "%-34s %14.4f %-8s %8d  %s\n", m.name, m.value, m.unit, m.n, m.note)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, s := range res.spans {
		fmt.Fprintf(bw, "span %-28s count %7d total %12.3f ms self %12.3f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
	for _, f := range res.failures {
		fmt.Fprintf(bw, "CHECK FAILED: %s\n", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.failures) == 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

// runContext records what a run's numbers depend on.
func runContext(o options) [][2]string {
	return [][2]string{
		{"cpu", cpuModel()},
		{"nproc", fmt.Sprint(goruntime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(goruntime.GOMAXPROCS(0))},
		{"parallelism", fmt.Sprint(par.Parallelism())},
		{"go", goruntime.Version()},
		{"commit", commit()},
		{"seed", fmt.Sprint(o.seed)},
		{"seconds", fmt.Sprint(o.seconds)},
		{"trace", fmt.Sprint(o.traced)},
		// Replays are open loop on the virtual clock and every query is
		// timed from its scheduled arrival, so the generator is never late.
		{"lateness_ms", "0"},
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the time, in clock ticks, that the kernel accounts as
// stolen by the hypervisor and in total across CPUs; both are 0 where
// /proc/stat is unavailable. Other guests on the same host slow a run down
// without any change to the program, and the steal share shows it.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// commit is the VCS revision the binary was built from, when the build
// could see one (a checkout without git metadata has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
