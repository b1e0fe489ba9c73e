package main

import (
	"bytes"
	"fmt"
	"io"
	gort "runtime"
	"runtime/pprof"
	"slices"
	"time"

	"ssmst/internal/graph"
	"ssmst/internal/runtime"
	"ssmst/internal/verify"
)

// config holds the run-level sizes that belong to no single workload.
type config struct {
	setups       int // set-ups per untraced run; setup_s is their median
	coastProbeN  int // nodes of the worklist probe (coast replay, quiet round, mutate)
	restabProbeN int // nodes of the transformer probe (per-phase rounds)
	probeRounds  int // timed rounds or sweeps per round-level probe
}

var defaultConfig = config{setups: 3, coastProbeN: 512, restabProbeN: 256, probeRounds: 32}

type options struct {
	seed     int64
	seconds  time.Duration // how long the episodes are measured
	episodes int           // > 0: run exactly this many episodes instead
	trace    bool
}

// run is the measurement context of one benchmark invocation: the
// scenarios call into it around every round, stage and layer call.
type run struct {
	w   workload
	cfg config
	opt options
	out io.Writer // failure records

	all *tracer // the traced run's spans; nil in untraced runs
	tr  *tracer // all while the current episode is traced, else nil
	ep  int     // current episode; -1 during set-up and probes

	setups      []time.Duration
	heapPerNode []float64

	rounds     []time.Duration // every episode round
	steps      int64           // node steps over the episode rounds
	recovering bool            // the current rounds belong to a recovery stage
	recActive  float64         // Σ LastActive/n over recovery rounds
	recRounds  int
	maxBits    int

	cur      *episode
	episodes []episode
	failures int
	stopped  bool // a failure left the instance unrecovered

	profile []byte             // traced runs: CPU profile of the episodes
	probes  map[string]float64 // traced runs: layer-isolation probes
}

type episode struct {
	wall       time.Duration
	rounds     int
	traced     bool
	failed     bool
	detects    []int // rounds from a fault (wave) to the first alarm
	recovers   []int // rounds from the repair to calm, re-frozen or re-stabilized
	recomputes int64 // verifier static-layer recomputations
	copies     int64 // verifier deep label copies
	hops       []int // traced runs: farthest fault-to-nearest-alarm hop distance per wave

	// Detection snapshots for hops, evaluated once the episode clock stopped.
	g              *graph.Graph
	faults, alarms []int
}

// execute runs workload w: set-up (cfg.setups times when untraced), then
// episodes for opt.seconds (or opt.episodes), then — traced runs only — the
// layer probes.
func execute(w workload, cfg config, opt options, out io.Writer) (*run, error) {
	x := &run{w: w, cfg: cfg, opt: opt, out: out, ep: -1}
	if !opt.trace {
		var s scenario
		for i := 0; i < cfg.setups; i++ {
			s = nil
			var m0, m1 gort.MemStats
			gort.GC()
			gort.ReadMemStats(&m0)
			t0 := time.Now()
			s = w.new(w.p, opt.seed)
			if err := s.setup(x); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			x.setups = append(x.setups, time.Since(t0))
			gort.GC()
			gort.ReadMemStats(&m1)
			x.heapPerNode = append(x.heapPerNode, (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/float64(s.nodes()))
		}
		return x, x.measure(s)
	}

	x.all = newTracer()
	x.tr = x.all
	root := x.begin("bench.workload")
	s := w.new(w.p, opt.seed)
	sp := x.begin("bench.setup")
	err := s.setup(x)
	x.end(sp)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	err = x.measure(s)
	pprof.StopCPUProfile()
	x.tr = x.all
	x.end(root)
	x.tr = nil
	if err != nil {
		return nil, err
	}
	x.profile = prof.Bytes()
	if x.probes, err = runProbes(x, s); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return x, nil
}

// measure runs episodes in a closed loop: the next starts only after the
// previous one has recovered, until the measurement time is up or a failure
// left the instance unrecovered.
func (x *run) measure(s scenario) error {
	start := time.Now()
	for i := 0; !x.stopped && x.more(i, start); i++ {
		if err := x.runEpisode(s, i); err != nil {
			return fmt.Errorf("episode %d: %w", i, err)
		}
	}
	x.ep = -1
	return nil
}

func (x *run) more(i int, start time.Time) bool {
	if x.opt.episodes > 0 {
		return i < x.opt.episodes
	}
	return i == 0 || time.Since(start) < x.opt.seconds
}

// runEpisode runs and times episode i. A traced run traces alternate blocks
// of one episode cycle, so bench.trace_overhead compares like episodes.
func (x *run) runEpisode(s scenario, i int) error {
	x.ep = i
	x.tr = nil
	if x.all != nil && (i/s.cycle())%2 == 0 {
		x.tr = x.all
	}
	x.cur = &episode{traced: x.tr != nil}
	sp := x.begin("bench.episode")
	t0 := time.Now()
	err := s.episode(x, i)
	x.cur.wall = time.Since(t0)
	x.end(sp)
	if e := x.cur; e.g != nil {
		e.hops = append(e.hops, slices.Max(verify.DetectionDistance(e.g, e.faults, e.alarms)))
	}
	if x.cur.failed {
		x.failures++
	}
	x.episodes = append(x.episodes, *x.cur)
	return err
}

func (x *run) begin(name string) int32 {
	if x.tr == nil {
		return -1
	}
	return x.tr.begin(name, x.ep)
}

func (x *run) end(id int32) {
	if id >= 0 {
		x.tr.end(id)
	}
}

// step runs and times one synchronous round. Set-up rounds (ep < 0) are
// traced but are not episode rounds.
func (x *run) step(eng *runtime.Engine, step func()) {
	t0 := time.Now()
	step()
	t1 := time.Now()
	if x.tr != nil {
		x.tr.leaf("runtime.round", x.ep, t0, t1)
	}
	if x.ep < 0 {
		return
	}
	x.rounds = append(x.rounds, t1.Sub(t0))
	x.cur.rounds++
	a := eng.LastActive()
	x.steps += int64(a)
	if x.recovering {
		x.recActive += float64(a) / float64(eng.G().N())
		x.recRounds++
	}
}

// until steps rounds until done holds after one, for at most max rounds,
// and returns the rounds taken and whether done held.
func (x *run) until(eng *runtime.Engine, step func(), max int, done func() bool) (int, bool) {
	for k := 1; k <= max; k++ {
		x.step(eng, step)
		if done() {
			return k, true
		}
	}
	return max, false
}

// detected records a detection after the given rounds. Traced runs also
// keep the fault locations and the alarm set for verify.detect_hops.
func (x *run) detected(rounds int, faults []int, eng *runtime.Engine) {
	x.cur.detects = append(x.cur.detects, rounds)
	if x.all != nil && len(faults) > 0 {
		x.cur.g, x.cur.faults, x.cur.alarms = eng.G(), append([]int(nil), faults...), eng.AlarmNodes()
	}
}

func (x *run) recovered(rounds int) { x.cur.recovers = append(x.cur.recovers, rounds) }

func (x *run) noteBits(eng *runtime.Engine) {
	if b := eng.MaxStateBits(); b > x.maxBits {
		x.maxBits = b
	}
}

// fail records a failed check of the current episode. It prints everything
// needed to reproduce it: --workload and --seed alone replay the episode.
// The instance is not trusted afterwards, so the run ends with the episode.
func (x *run) fail(check string, nodes []int, format string, args ...any) {
	x.cur.failed = true
	x.stopped = true
	shown := nodes
	if len(shown) > 16 {
		shown = shown[:16]
	}
	fmt.Fprintf(x.out, "FAIL workload=%s episode=%d seed=%d check=%s nodes=%v (%d): %s\n",
		x.w.name, x.ep, x.opt.seed, check, shown, len(nodes), fmt.Sprintf(format, args...))
}

type counters struct{ recomputes, copies int64 }

func readCounters(m *verify.Machine) counters {
	return counters{m.StaticRecomputes(), m.LabelCopies()}
}

// addCounters adds the verifier counters' growth since c0 to the episode.
func (x *run) addCounters(m *verify.Machine, c0 counters) {
	x.cur.recomputes += m.StaticRecomputes() - c0.recomputes
	x.cur.copies += m.LabelCopies() - c0.copies
}
