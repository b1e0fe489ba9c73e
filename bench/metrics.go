package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	gort "runtime"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; the tests hold the two together.
type metricDef struct{ name, unit string }

// endToEndDefs are what a user of a scenario sees, reported by untraced
// runs (--trace 0).
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"episode_s", "s"},
	{"round_us", "us"},
	{"heap_bytes_per_node", "B"},
	{"max_state_bits", "bits"},
}

// perLayerDefs are the per-layer metrics of traced runs (--trace 1).
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"runtime.flood_round_us", "us"},
		{"runtime.round_us_p99", "us"},
		{"runtime.steps_per_round", "count"},
		{"runtime.active_frac", "ratio"},
		{"runtime.mutate_ms", "ms"},
		{"verify.static_recomputes", "count"},
		{"verify.label_copies", "count"},
		{"verify.fullrecheck_round_us", "us"},
		{"verify.coast_replay_ns", "ns"},
		{"verify.quiet_round_ns", "ns"},
		{"verify.mark_ms", "ms"},
		{"verify.label_bits_max", "bits"},
		{"verify.detect_hops", "hops"},
		{"hierarchy.check_all_ms", "ms"},
		{"hierarchy.mark_strings_ms", "ms"},
		{"train.sweep_us", "us"},
		{"train.mark_ms", "ms"},
		{"graph.generate_ms", "ms"},
		{"syncmst.simulate_ms", "ms"},
		{"syncmst.rounds", "rounds"},
		{"partition.compute_ms", "ms"},
		{"oracle.tlightness_ms", "ms"},
		{"oracle.unionfind_ms", "ms"},
		{"oracle.crosscheck_ms", "ms"},
	}
	for _, p := range phases {
		defs = append(defs, metricDef{"selfstab.rounds." + p.String(), "rounds"})
	}
	for _, p := range phases {
		defs = append(defs, metricDef{"selfstab.round_us." + p.String(), "us"})
	}
	for _, l := range cpuShareLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "ratio"})
	}
	return append(defs,
		metricDef{"bench.detect_rounds", "rounds"},
		metricDef{"bench.recover_rounds", "rounds"},
		metricDef{"bench.episodes", "count"},
		metricDef{"bench.failures", "count"},
		metricDef{"bench.rounds", "count"},
		metricDef{"bench.trace_overhead", "ratio"},
	)
}()

func one(v float64) []float64 { return []float64{v} }

// endToEnd returns the samples of every end-to-end metric.
func (x *run) endToEnd() map[string][]float64 {
	walls := make([]time.Duration, len(x.episodes))
	for i, e := range x.episodes {
		walls[i] = e.wall
	}
	return map[string][]float64{
		"setup_s":             scaled(x.setups, time.Second),
		"episode_s":           scaled(walls, time.Second),
		"round_us":            scaled(x.rounds, time.Microsecond),
		"heap_bytes_per_node": x.heapPerNode,
		"max_state_bits":      one(float64(x.maxBits)),
	}
}

// perLayer returns the samples of every per-layer metric a traced run
// measured. Counts that do not apply to the workload stay absent.
func (x *run) perLayer() (map[string][]float64, error) {
	v := map[string][]float64{}
	for k, p := range x.probes {
		v[k] = one(p)
	}
	if len(x.rounds) > 0 {
		v["runtime.round_us_p99"] = one(percentile(scaled(x.rounds, time.Microsecond), 99))
		v["runtime.steps_per_round"] = one(float64(x.steps) / float64(len(x.rounds)))
	}
	if x.recRounds > 0 {
		v["runtime.active_frac"] = one(x.recActive / float64(x.recRounds))
	}
	// Episode time per round, traced against untraced episodes.
	var traced, untraced [2]float64
	for _, e := range x.episodes {
		v["verify.static_recomputes"] = append(v["verify.static_recomputes"], float64(e.recomputes))
		v["verify.label_copies"] = append(v["verify.label_copies"], float64(e.copies))
		v["bench.detect_rounds"] = append(v["bench.detect_rounds"], ints(e.detects)...)
		v["bench.recover_rounds"] = append(v["bench.recover_rounds"], ints(e.recovers)...)
		v["verify.detect_hops"] = append(v["verify.detect_hops"], ints(e.hops)...)
		sum := &untraced
		if e.traced {
			sum = &traced
		}
		sum[0] += e.wall.Seconds()
		sum[1] += float64(e.rounds)
	}
	if traced[1] > 0 && untraced[1] > 0 {
		v["bench.trace_overhead"] = one((traced[0]/traced[1])/(untraced[0]/untraced[1]) - 1)
	}
	v["bench.episodes"] = one(float64(len(x.episodes)))
	v["bench.failures"] = one(float64(x.failures))
	v["bench.rounds"] = one(float64(len(x.rounds)))
	shares, err := cpuShares(x.profile)
	if err != nil {
		return nil, err
	}
	for _, l := range cpuShareLayers {
		v["cpu_share."+l] = one(shares[l])
	}
	return v, nil
}

// reported is one metric as printed: its definition, the summary of its
// samples, and whether it applies to the workload at all.
type reported struct {
	metricDef
	summary
	na bool
}

// value is the number the result line carries: the median of the samples,
// or 0 for a metric that does not apply.
func (r reported) value() float64 {
	if r.na {
		return 0
	}
	return r.Median
}

func collect(defs []metricDef, samples map[string][]float64) []reported {
	out := make([]reported, len(defs))
	for i, d := range defs {
		s := summarize(samples[d.name])
		out[i] = reported{metricDef: d, summary: s, na: s.N == 0 || math.IsNaN(s.Median) || math.IsInf(s.Median, 0)}
	}
	return out
}

// writeTable prints every metric by name with its unit; metrics that do
// not apply to the workload read n/a.
func writeTable(w io.Writer, ms []reported) {
	fmt.Fprintf(w, "%-30s %16s  %-6s %8s %16s %16s\n", "metric", "median", "unit", "samples", "q1", "q3")
	for _, m := range ms {
		if m.na {
			fmt.Fprintf(w, "%-30s %16s  %-6s %8d\n", m.name, "n/a", m.unit, 0)
			continue
		}
		fmt.Fprintf(w, "%-30s %16.6g  %-6s %8d %16.6g %16.6g\n", m.name, m.Median, m.unit, m.N, m.Q1, m.Q3)
	}
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func (x *run) resultLine(ms []reported) resultLine {
	r := resultLine{Correct: x.failures == 0, Attempted: len(x.episodes), Failed: x.failures, Metrics: map[string]resultMetric{}}
	for _, m := range ms {
		r.Metrics[m.name] = resultMetric{Value: m.value(), Unit: m.unit}
	}
	return r
}

// machineShape is recorded with every result.
type machineShape struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Go         string `json:"go"`
}

func currentMachine() machineShape {
	return machineShape{gort.NumCPU(), gort.GOMAXPROCS(0), gort.GOOS, gort.GOARCH, gort.Version()}
}

type fileMetric struct {
	Unit string `json:"unit"`
	summary
	NA bool `json:"na,omitempty"`
}

// fileReport is the -json output: every metric's unit, sample count, median
// and quartiles, with the machine shape and the run's identity, so paired
// comparisons need no parsing of standard output.
type fileReport struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Machine   machineShape          `json:"machine"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]fileMetric `json:"metrics"`
}

func (x *run) writeJSON(path string, ms []reported) error {
	rep := fileReport{
		Workload: x.w.name, Seed: x.opt.seed, Seconds: x.opt.seconds.Seconds(), Trace: x.opt.trace,
		Machine: currentMachine(), Attempted: len(x.episodes), Failed: x.failures,
		Metrics: map[string]fileMetric{},
	}
	for _, m := range ms {
		s := m.summary
		if m.na {
			s = summary{}
		}
		rep.Metrics[m.name] = fileMetric{Unit: m.unit, summary: s, NA: m.na}
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
