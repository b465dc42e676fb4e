// Command gillis-bench regenerates the Gillis paper's evaluation figures
// (§V) on the simulated serverless platforms and prints each figure's table.
//
// Usage:
//
//	gillis-bench [-figs ID,ID,...] [-seed N] [-queries N] [-quick]
//	             [-out FILE] [-json-dir DIR] [-parallelism N]
//	             [-faults R1,R2,...] [-kernels-baseline FILE] [-kernels-check]
//	             [-cpuprofile FILE] [-memprofile FILE]
//	             [-trace-json FILE] [-trace-faults R]
//
// -figs selects the figures to run, in registry order. The default is the
// paper's figures plus the ablations, burst, load (dynamic load), kernels
// and chaos figures. Four serving sweeps run only when selected:
//
//   - load-sweep replays bursty arrival traces through the serving gateway,
//     sweeping burst rate × autoscaling policy (SLO attainment and cost);
//   - adapt replays the adaptive re-planning scenario: the same trace
//     through each static candidate plan and through the closed-loop
//     controller while the platform degrades, recovers and takes a surge;
//   - batch replays Poisson traces through the batching gateway, sweeping
//     batch size × arrival rate × planner (throughput, tail, cost/query);
//   - mesh replays Zipf-skewed multi-model traces through the serving mesh,
//     sweeping catalog size × skew × pool size, LRU caching vs no cache.
//
// -json-dir DIR writes BENCH_<name>.json into DIR for every selected figure
// with a JSON form: chaos, kernels, load-sweep (as BENCH_load.json), adapt,
// batch and mesh. These are the checked-in baselines; `make bench-check`
// regenerates the seeded ones and compares them byte for byte.
//
// -trace-json serves one seeded resilient fork-join query of the chaos
// workload under fault injection and writes its span tree as Chrome
// trace-event JSON (loadable in chrome://tracing or Perfetto), skipping the
// figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gillis/internal/bench"
	"gillis/internal/par"
)

// report is what every figure returns: a printable table. Figures with a
// JSON form also implement jsonReport.
type report interface{ Table() string }

type jsonReport interface{ JSON() ([]byte, error) }

type figure struct {
	id  string
	run func(*bench.Context) (report, error)
}

func figures() []figure {
	return []figure{
		{"1", func(c *bench.Context) (report, error) { return bench.Fig1(c) }},
		{"7", func(c *bench.Context) (report, error) { return bench.Fig7(c) }},
		{"9", func(c *bench.Context) (report, error) { return bench.Fig9(c) }},
		{"10", func(c *bench.Context) (report, error) { return bench.Fig10(c) }},
		{"11", func(c *bench.Context) (report, error) { return bench.Fig11(c) }},
		{"12", func(c *bench.Context) (report, error) { return bench.Fig12(c) }},
		{"13", func(c *bench.Context) (report, error) { return bench.Fig13(c) }},
		{"14", func(c *bench.Context) (report, error) { return bench.Fig14(c) }},
		{"15", func(c *bench.Context) (report, error) { return bench.Fig15(c) }},
		{"ablations", func(c *bench.Context) (report, error) { return bench.Ablations(c) }},
		{"burst", func(c *bench.Context) (report, error) { return bench.Burst(c) }},
		{"load", func(c *bench.Context) (report, error) { return bench.DynamicLoad(c) }},
		{"kernels", func(c *bench.Context) (report, error) { return bench.Kernels(c) }},
		{"chaos", func(c *bench.Context) (report, error) { return bench.Chaos(c) }},
		{"load-sweep", func(c *bench.Context) (report, error) { return bench.SweepLoad(c) }},
		{"adapt", func(c *bench.Context) (report, error) { return bench.AdaptScenario(c) }},
		{"batch", func(c *bench.Context) (report, error) { return bench.SweepBatch(c) }},
		{"mesh", func(c *bench.Context) (report, error) { return bench.SweepMesh(c) }},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gillis-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gillis-bench", flag.ContinueOnError)
	figsFlag := fs.String("figs", "1,7,9,10,11,12,13,14,15,ablations,burst,load,kernels,chaos", "comma-separated figures to run (also: load-sweep, adapt, batch, mesh)")
	seed := fs.Int64("seed", 42, "random seed for all stochastic components")
	queries := fs.Int("queries", 100, "queries per latency measurement")
	quick := fs.Bool("quick", false, "trim sweeps and training budgets")
	out := fs.String("out", "", "also write tables to this file")
	parallelism := fs.Int("parallelism", 0, "kernel parallelism cap for Real-mode math (0 = GOMAXPROCS)")
	kernelsBaseline := fs.String("kernels-baseline", "", "annotate the kernels figure with before/after columns against this prior baseline JSON")
	kernelsCheck := fs.Bool("kernels-check", false, "fail if any kernel ns/op regresses more than 10% against -kernels-baseline")
	faultsFlag := fs.String("faults", "", "comma-separated fault rates for the chaos figure (default 0.02,0.05,0.10)")
	jsonDir := fs.String("json-dir", "", "write BENCH_<name>.json into this directory for every selected figure with a JSON form")
	traceJSON := fs.String("trace-json", "", "trace one fork-join query and write Chrome trace-event JSON to this file")
	traceFaults := fs.Float64("trace-faults", 0.05, "fault rate for the traced query (-trace-json)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kernelsCheck && *kernelsBaseline == "" {
		return fmt.Errorf("-kernels-check requires -kernels-baseline")
	}

	if *parallelism > 0 {
		restore := par.SetParallelism(*parallelism)
		defer restore()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	ctx := bench.NewContext(*seed)
	ctx.Queries = *queries
	ctx.Quick = *quick
	if *faultsFlag != "" {
		rates, err := parseRates(*faultsFlag)
		if err != nil {
			return err
		}
		ctx.FaultRates = rates
	}

	if *traceJSON != "" {
		report, err := bench.QueryTrace(ctx, *traceFaults)
		if err != nil {
			return fmt.Errorf("trace-json: %w", err)
		}
		if err := os.WriteFile(*traceJSON, report.Chrome, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Table())
		fmt.Fprintf(stdout, "trace written to %s\n", *traceJSON)
		return nil
	}

	want := make(map[string]bool)
	for _, f := range strings.Split(*figsFlag, ",") {
		want[strings.TrimSpace(f)] = true
	}

	var sink io.Writer = stdout
	var file *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		file = f
		sink = io.MultiWriter(stdout, f)
	}

	for _, fig := range figures() {
		if !want[fig.id] {
			continue
		}
		start := time.Now()
		res, err := fig.run(ctx)
		if err != nil {
			return fmt.Errorf("figure %s: %w", fig.id, err)
		}
		kr, _ := res.(*bench.KernelReport) // nil for every other figure
		if kr != nil && *kernelsBaseline != "" {
			base, err := readKernelBaseline(*kernelsBaseline)
			if err != nil {
				return err
			}
			kr.Compare(base)
		}
		fmt.Fprintln(sink, res.Table())
		fmt.Fprintf(sink, "(figure %s regenerated in %v)\n\n", fig.id, time.Since(start).Round(time.Millisecond))
		if jr, ok := res.(jsonReport); ok && *jsonDir != "" {
			// load-sweep keeps its baseline name, BENCH_load.json.
			name := "BENCH_" + strings.TrimSuffix(fig.id, "-sweep") + ".json"
			if err := writeJSON(jr, filepath.Join(*jsonDir, name)); err != nil {
				return fmt.Errorf("figure %s: %w", fig.id, err)
			}
		}
		if kr != nil && *kernelsCheck {
			err := kr.CheckRegression(0.10)
			if err != nil {
				// A sub-millisecond kernel can blow the gate on one noisy
				// sample (co-tenant or frequency jitter); re-measure once
				// before declaring a regression. A real slowdown fails both
				// attempts.
				fmt.Fprintf(sink, "kernels: %v\nkernels: re-measuring once to rule out noise\n", err)
				retry, rerr := bench.Kernels(ctx)
				if rerr != nil {
					return rerr
				}
				base, berr := readKernelBaseline(*kernelsBaseline)
				if berr != nil {
					return berr
				}
				retry.Compare(base)
				err = retry.CheckRegression(0.10)
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(sink, "kernels: no ns/op regression beyond 10%% of %s\n", *kernelsBaseline)
		}
	}
	if file != nil {
		return file.Close()
	}
	return nil
}

// writeJSON writes a figure's JSON form to path.
func writeJSON(jr jsonReport, path string) error {
	js, err := jr.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, js, 0o644)
}

// readKernelBaseline loads a previously written BENCH_kernels.json report.
func readKernelBaseline(path string) (*bench.KernelReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kernels baseline: %w", err)
	}
	var r bench.KernelReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("kernels baseline %s: %w", path, err)
	}
	return &r, nil
}

// parseRates parses the -faults comma-separated probability list.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("invalid fault rate %q (want a probability in [0,1])", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("empty -faults list")
	}
	return rates, nil
}
