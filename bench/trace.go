package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of a traced run: the workload, a set-up stage,
// an episode, a stage of an episode, one call into a layer, or one round.
// The layer is the name's prefix before the first dot ("runtime.round" is
// the runtime layer, "bench.detect" the benchmark's own stage).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer's origin
	End     int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`  // index of the enclosing span, -1 for a root
	Episode int32  `json:"episode"` // -1 outside episodes
}

// tracer keeps a traced run's spans in memory; they are written out only
// when the run ends. Spans nest strictly (begin/end in stack order), so a
// span's children never overlap and self time is well defined.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, episode int) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.at(time.Now()), End: -1, Parent: t.top(), Episode: int32(episode)})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t.top() != id {
		panic(fmt.Sprintf("bench: span %q closed out of order", t.spans[id].Name))
	}
	t.spans[id].End = t.at(time.Now())
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf records an already-timed span with no children under the innermost
// open one (rounds: the caller's own clock readings become the span).
func (t *tracer) leaf(name string, episode int, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: t.top(), Episode: int32(episode)})
}

// selfTimes returns each span's self time: its duration minus the time its
// direct children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums the self time of every span inside an episode by layer.
func (t *tracer) layerSelf() map[string]time.Duration {
	self := t.selfTimes()
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.Episode >= 0 {
			out[layerOf(s.Name)] += time.Duration(self[i])
		}
	}
	return out
}

// writeLayerTable prints the per-layer self-time table of the traced
// episodes, largest layer first.
func (t *tracer) writeLayerTable(w io.Writer) {
	by := t.layerSelf()
	var total time.Duration
	layers := make([]string, 0, len(by))
	for l, d := range by {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool {
		if by[layers[i]] != by[layers[j]] {
			return by[layers[i]] > by[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "span self time of the traced episodes (%d spans)\n", len(t.spans))
	fmt.Fprintf(w, "  %-10s %12s %7s\n", "layer", "self ms", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %12.3f %6.1f%%\n", l, float64(by[l])/1e6, 100*float64(by[l])/float64(total))
	}
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
