package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if vs[0] != 50 {
		t.Error("percentile reordered its input")
	}
}

// Hand-made spans: an add of 100 containing an emit of 60, which
// contains a step of 45 (detect 20, classify 15, finalize 5) and a
// publish of 10; decode and attribute stand alone.
func TestSelfTimeArithmetic(t *testing.T) {
	tr := newTracer(recordLayers)
	at := func(ns int) time.Time { return tr.t0.Add(time.Duration(ns)) }
	tr.add(lDecode, 3, at(0), at(7))
	tr.add(lAttribute, 3, at(7), at(30))
	tr.add(lAdd, 3, at(30), at(80))
	tr.add(lAdd, 3, at(100), at(150)) // second call folds into the same span
	tr.add(lEmit, 3, at(40), at(100))
	tr.add(lStep, 3, at(40), at(85))
	tr.add(lDetect, 3, at(45), at(65))
	tr.add(lClassify, 3, at(65), at(80))
	tr.add(lFinalize, 3, at(80), at(85))
	tr.add(lPublish, 3, at(85), at(95))
	tr.add(lDecode, 4, at(200), at(210)) // another interval, outside the range

	spans := tr.recorded()
	if len(spans) != len(recordLayers)+1 {
		t.Fatalf("%d spans recorded, want %d", len(spans), len(recordLayers)+1)
	}
	for _, sp := range spans {
		if sp.Name == "agg.add" && sp.Interval == 3 {
			if sp.Calls != 2 || sp.BusyNs != 100 || sp.StartNs != 30 || sp.EndNs != 150 || sp.Parent != "" {
				t.Fatalf("aggregated add span = %+v", sp)
			}
		}
		if sp.Name == "core.step" && sp.Parent != "agg.emit" {
			t.Fatalf("step's parent = %q", sp.Parent)
		}
	}
	self := selfTimes(recordLayers, busyByLayer(spans, 3, 4))
	want := map[string]int64{
		"netflow.decode": 7, "bgp.attribute": 23, "agg.add": 40, "agg.emit": 5,
		"core.step": 5, "core.detect": 20, "core.classify": 15, "core.finalize": 5, "serve.publish": 10,
	}
	var total int64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
		total += self[name]
	}
	// Self times partition the top-level busy time.
	if total != 7+23+100 {
		t.Errorf("self times sum to %d, want %d", total, 7+23+100)
	}
	var nilTracer *tracer
	nilTracer.add(lDecode, 0, time.Time{}, time.Time{})
	if !nilTracer.now().IsZero() {
		t.Error("a nil tracer read the clock")
	}
}
