package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layer is one span name of a trace, with the layer whose calls cause
// it ("" for a top-level layer).
type layer struct {
	name   string
	parent string
}

// Span layers of the staged record path (stream and live inputs): the
// harness times its own calls into each package. agg.emit is the
// accumulator's Emit hook, which the harness owns; everything the hook
// does is a child of it.
var recordLayers = []layer{
	lDecode:    {"netflow.decode", ""},
	lAttribute: {"bgp.attribute", ""},
	lAdd:       {"agg.add", ""},
	lEmit:      {"agg.emit", "agg.add"},
	lStep:      {"core.step", "agg.emit"},
	lDetect:    {"core.detect", "core.step"},
	lClassify:  {"core.classify", "core.step"},
	lFinalize:  {"core.finalize", "core.step"},
	lPublish:   {"serve.publish", "agg.emit"},
}

const (
	lDecode = iota
	lAttribute
	lAdd
	lEmit
	lStep
	lDetect
	lClassify
	lFinalize
	lPublish
)

// Span layers of the staged batch path: sealed-series emission and the
// pipeline step, side by side.
var batchLayers = []layer{
	bEmit:     {"agg.emit", ""},
	bStep:     {"core.step", ""},
	bDetect:   {"core.detect", "core.step"},
	bClassify: {"core.classify", "core.step"},
	bFinalize: {"core.finalize", "core.step"},
}

const (
	bEmit = iota
	bStep
	bDetect
	bClassify
	bFinalize
)

// span is one layer's calls on behalf of one interval, aggregated: a
// datagram-level span per call would be millions of entries, and every
// per-layer figure is a per-interval or per-record mean anyway.
type span struct {
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Interval int    `json:"interval"` // shared by all spans of one interval
	StartNs  int64  `json:"start_ns"` // first call's start, from trace start
	EndNs    int64  `json:"end_ns"`   // last call's end
	BusyNs   int64  `json:"busy_ns"`  // summed call durations
	Calls    int64  `json:"calls"`
}

// tracer aggregates spans in memory; nothing is written until the run
// is over. A nil *tracer records nothing and reads no clock.
type tracer struct {
	t0     time.Time
	layers []layer
	spans  []span // spans[interval*len(layers)+layer]
}

func newTracer(layers []layer) *tracer {
	return &tracer{t0: time.Now(), layers: layers}
}

// now reads the clock only when tracing.
func (tr *tracer) now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// add folds one call of layer li (an index into the tracer's layer
// table) on behalf of interval into that interval's span.
func (tr *tracer) add(li, interval int, start, end time.Time) {
	if tr == nil {
		return
	}
	n := len(tr.layers)
	for len(tr.spans) < (interval+1)*n {
		l := tr.layers[len(tr.spans)%n]
		tr.spans = append(tr.spans, span{Name: l.name, Parent: l.parent, Interval: len(tr.spans) / n})
	}
	sp := &tr.spans[interval*n+li]
	s, e := start.Sub(tr.t0).Nanoseconds(), end.Sub(tr.t0).Nanoseconds()
	if sp.Calls == 0 || s < sp.StartNs {
		sp.StartNs = s
	}
	if e > sp.EndNs {
		sp.EndNs = e
	}
	sp.BusyNs += e - s
	sp.Calls++
}

// recorded returns the spans that saw at least one call.
func (tr *tracer) recorded() []span {
	var out []span
	for _, sp := range tr.spans {
		if sp.Calls > 0 {
			out = append(out, sp)
		}
	}
	return out
}

// busyByLayer sums each layer's busy time over the intervals in [lo, hi).
func busyByLayer(spans []span, lo, hi int) map[string]int64 {
	out := make(map[string]int64)
	for _, sp := range spans {
		if sp.Interval >= lo && sp.Interval < hi {
			out[sp.Name] += sp.BusyNs
		}
	}
	return out
}

// selfTimes turns busy times into self times: a layer's busy time minus
// the busy time of the layers it is the parent of.
func selfTimes(layers []layer, busy map[string]int64) map[string]int64 {
	self := make(map[string]int64, len(layers))
	for _, l := range layers {
		self[l.name] = busy[l.name]
	}
	for _, l := range layers {
		if l.parent != "" {
			self[l.parent] -= busy[l.name]
		}
	}
	return self
}

// writeTrace writes the spans as one JSON document, creating the
// directory if needed.
func writeTrace(path string, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// percentile returns the p-th percentile (0..100) of vs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 50) }

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

func absInt(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
