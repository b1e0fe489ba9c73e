// Command bench is the repository's end-to-end scenario benchmark. Each of
// four closed-loop workloads (dense-detect, coast-storm, restab,
// oracle-campaign) drives the production runners through the public APIs of
// graph, syncmst, verify, selfstab, oracle and runtime.Engine; every round
// and every episode is timed from outside, and every verdict is checked
// against ground truth. A traced run (--trace 1) re-runs the workload with
// spans around every call into a layer, a CPU profile split by layer, and
// layer-isolation probes. See README.md for the metrics and how to compare
// two commits.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload dense-detect --seed 1 --seconds 20 --trace 0
//
// Everything is derived from --seed. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics: the
// end-to-end metrics of BENCHMARK.json for --trace 0, the per-layer ones for
// --trace 1. A failed verdict is reported and counted, and the command still
// exits 0; a harness error (a graph that cannot be marked, a bad flag) exits
// non-zero without a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	gort "runtime"
	"strings"
	"time"
)

// procs is the scheduler width every run is pinned to: the two-worker
// production configuration of the engine pool.
const procs = 2

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", 20, "how long the episodes are measured, in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	jsonPath := flag.String("json", "", "also write every metric's unit, sample count, median and quartiles, with the machine shape, to this file")
	spansPath := flag.String("spans", "", "traced runs: write the spans to this file as JSON lines")
	profilePath := flag.String("cpuprofile", "", "traced runs: write the episodes' CPU profile to this file")
	flag.Parse()
	if err := benchMain(os.Stdout, *workload, *seed, *seconds, *trace, *jsonPath, *spansPath, *profilePath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func benchMain(out io.Writer, name string, seed int64, seconds, trace int, jsonPath, spansPath, profilePath string) error {
	w, ok := lookup(name)
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (workloads: %s)", name, strings.Join(workloadNames(), ", "))
	case seconds < 1:
		return errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return errors.New("--trace must be 0 or 1")
	case trace == 0 && (spansPath != "" || profilePath != ""):
		return errors.New("--spans and --cpuprofile need --trace 1")
	case gort.NumCPU() < procs:
		return fmt.Errorf("needs at least %d CPUs, have %d", procs, gort.NumCPU())
	}
	gort.GOMAXPROCS(procs)
	m := currentMachine()
	fmt.Fprintf(out, "bench: workload=%s seed=%d seconds=%d trace=%d numcpu=%d gomaxprocs=%d %s/%s %s\n",
		w.name, seed, seconds, trace, m.NumCPU, m.GOMAXPROCS, m.GOOS, m.GOARCH, m.Go)

	x, err := execute(w, defaultConfig, options{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1}, out)
	if err != nil {
		return err
	}
	ms, err := x.report(out)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := x.writeJSON(jsonPath, ms); err != nil {
			return err
		}
	}
	if spansPath != "" {
		if err := x.all.writeFile(spansPath); err != nil {
			return err
		}
	}
	if profilePath != "" {
		if err := os.WriteFile(profilePath, x.profile, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(x.resultLine(ms))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// report prints the run's summary and metric table and returns the metrics
// the result line carries.
func (x *run) report(out io.Writer) ([]reported, error) {
	fmt.Fprintf(out, "episodes: %d attempted, %d failed, %d timed rounds\n", len(x.episodes), x.failures, len(x.rounds))
	if !x.opt.trace {
		ms := collect(endToEndDefs, x.endToEnd())
		writeTable(out, ms)
		return ms, nil
	}
	x.all.writeLayerTable(out)
	samples, err := x.perLayer()
	if err != nil {
		return nil, err
	}
	ms := collect(perLayerDefs, samples)
	writeTable(out, ms)
	return ms, nil
}
