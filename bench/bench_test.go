package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// shrunk returns workload w from the workload table, resized so that a
// test run takes well under a second.
func shrunk(w workload) workload {
	switch w.name {
	case "dense-detect":
		w.p.n, w.p.wave = 512, 8
	case "coast-storm":
		w.p.n, w.p.wave = 256, 4
	case "restab":
		w.p.n = 128
	case "oracle-campaign":
		w.p.n, w.p.subSeeds, w.p.observe = 512, 1, 8
	}
	return w
}

var testConfig = config{setups: 2, coastProbeN: 128, restabProbeN: 64, probeRounds: 4}

// runShrunk runs two episode cycles of the shrunk workload w.
func runShrunk(t *testing.T, w workload, trace bool) *run {
	t.Helper()
	cycle := w.new(w.p, 1).cycle()
	var out bytes.Buffer
	x, err := execute(w, testConfig, options{seed: 1, episodes: 2 * cycle, trace: trace}, &out)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", w.name, trace, err)
	}
	if x.failures != 0 {
		t.Fatalf("%s (trace=%v): %d failed episodes:\n%s", w.name, trace, x.failures, out.String())
	}
	return x
}

// exact is everything a run counts rather than times; it must not depend
// on timing, on tracing, or on which run it is.
type exact struct {
	MaxBits, Rounds              int
	Steps                        int64
	Detects, Recovers            [][]int
	Recomputes, Copies, EpRounds []int64
}

func exactOf(x *run) exact {
	e := exact{MaxBits: x.maxBits, Rounds: len(x.rounds), Steps: x.steps}
	for _, ep := range x.episodes {
		e.Detects = append(e.Detects, ep.detects)
		e.Recovers = append(e.Recovers, ep.recovers)
		e.Recomputes = append(e.Recomputes, ep.recomputes)
		e.Copies = append(e.Copies, ep.copies)
		e.EpRounds = append(e.EpRounds, int64(ep.rounds))
	}
	return e
}

func TestShrunkWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := shrunk(w)
		t.Run(w.name, func(t *testing.T) {
			a := runShrunk(t, w, false)
			b := runShrunk(t, w, false)
			c := runShrunk(t, w, true)

			checkReport(t, a, endToEndDefs)
			checkReport(t, c, perLayerDefs)

			if ea, eb := exactOf(a), exactOf(b); !reflect.DeepEqual(ea, eb) {
				t.Errorf("two same-seed runs count differently:\n%+v\n%+v", ea, eb)
			}
			if ea, ec := exactOf(a), exactOf(c); !reflect.DeepEqual(ea, ec) {
				t.Errorf("the traced run counts differently from the untraced one:\n%+v\n%+v", ea, ec)
			}
			checkEpisodeSpans(t, c)
		})
	}
}

// checkReport requires every metric of defs to be printed by name with its
// unit, and to be in the result line with that unit and a finite value.
func checkReport(t *testing.T, x *run, defs []metricDef) {
	t.Helper()
	var out bytes.Buffer
	ms, err := x.report(&out)
	if err != nil {
		t.Fatal(err)
	}
	table := out.String()
	line := x.resultLine(ms)
	if !line.Correct || line.Failed != 0 || line.Attempted != len(x.episodes) || line.Attempted < 1 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("result line carries %d metrics, want %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		found := false
		for _, row := range strings.Split(table, "\n") {
			if f := strings.Fields(row); len(f) >= 3 && f[0] == d.name && f[2] == d.unit {
				found = true
			}
		}
		if !found {
			t.Errorf("metric %s [%s] not printed:\n%s", d.name, d.unit, table)
		}
		m, ok := line.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("result line metric %s = %+v, want unit %s and a finite value", d.name, m, d.unit)
		}
	}
	if _, err := json.Marshal(line); err != nil {
		t.Errorf("result line does not encode: %v", err)
	}
}

// checkEpisodeSpans requires the self times of every traced episode's spans
// to add up to the episode's wall time.
func checkEpisodeSpans(t *testing.T, x *run) {
	t.Helper()
	spans := x.all.spans
	self := x.all.selfTimes()
	episodeOf := make([]int32, len(spans)) // enclosing bench.episode span, or -1
	sums := map[int32]int64{}
	for i, s := range spans {
		episodeOf[i] = -1
		switch {
		case s.Name == "bench.episode":
			episodeOf[i] = int32(i)
		case s.Parent >= 0:
			episodeOf[i] = episodeOf[s.Parent]
		}
		if s.End < s.Start || (s.Parent >= 0 && (s.Start < spans[s.Parent].Start || s.End > spans[s.Parent].End)) {
			t.Fatalf("span %d %q [%d,%d] escapes its parent", i, s.Name, s.Start, s.End)
		}
		if e := episodeOf[i]; e >= 0 {
			sums[e] += self[i]
		}
	}
	traced := 0
	for _, ep := range x.episodes {
		if ep.traced {
			traced++
		}
	}
	if len(sums) != traced || traced == 0 {
		t.Fatalf("%d episode spans for %d traced episodes", len(sums), traced)
	}
	for e, sum := range sums {
		wall := spans[e].End - spans[e].Start
		if math.Abs(float64(sum-wall)) > 0.01*float64(wall) {
			t.Errorf("episode %d: span self times sum to %d ns, wall %d ns", spans[e].Episode, sum, wall)
		}
	}
	var share float64
	samples, err := x.perLayer()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range cpuShareLayers {
		share += samples["cpu_share."+l][0]
	}
	if share != 0 && math.Abs(share-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v", share)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workload and metric tables
// the command runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the table has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndDefs}, {"per_layer", spec.PerLayer, perLayerDefs}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]", c.what, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

func TestFailureRecord(t *testing.T) {
	var out bytes.Buffer
	x := &run{w: workloads[0], opt: options{seed: 7}, out: &out, ep: 3, cur: &episode{}}
	x.fail("alarm-within-budget", []int{5, 9}, "no alarm within %d rounds", 10)
	want := "FAIL workload=dense-detect episode=3 seed=7 check=alarm-within-budget nodes=[5 9] (2): no alarm within 10 rounds\n"
	if out.String() != want || !x.cur.failed || !x.stopped {
		t.Errorf("got %q (failed=%v stopped=%v), want %q", out.String(), x.cur.failed, x.stopped, want)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(n=4), which the pipeline's spread rule uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", c.xs, s, c.q1, c.m, c.q3)
		}
	}
}

func TestLayerOfFile(t *testing.T) {
	for _, c := range []struct{ file, layer string }{
		{"/src/repo/internal/runtime/lanes.go", "lanes"},
		{"/src/repo/internal/verify/sampler.go", "sampler"},
		{"/src/repo/bench/run.go", "other"},
		{"ssmst@v0.0.0/internal/train/train.go", "trains"},
		{"ssmst@v0.0.0/internal/train/labels.go", "static"},
		{"ssmst@v0.0.0/internal/selfstab/selfstab.go", "transformer"},
		{"ssmst/bench/run.go", "other"},
		{"runtime/proc.go", "go-runtime"},
		{"/usr/local/go/src/runtime/internal/atomic/types.go", "go-runtime"},
	} {
		if got := layerOfFile(c.file, "/src/repo"); got != c.layer {
			t.Errorf("layerOfFile(%q) = %q, want %q", c.file, got, c.layer)
		}
	}
}
