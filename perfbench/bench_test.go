package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimesOverlappingConcurrentChildren(t *testing.T) {
	// A 100 ms forward pass with three tiles on two workers: [10,50]
	// and [30,70] overlap, [90,120] runs past the parent's end. The
	// union inside the parent is [10,70] ∪ [90,100] = 70 ms, so the
	// parent's self time is 30 ms, not 100 − (40+40+30).
	spans := []span{
		{name: "funcsim.forward", op: 1, id: 1, start: at(0), end: at(100)},
		{name: "xbar.tile", op: 1, id: 2, parent: 1, start: at(10), end: at(50)},
		{name: "xbar.tile", op: 1, id: 3, parent: 1, start: at(30), end: at(70)},
		{name: "xbar.tile", op: 1, id: 4, parent: 1, start: at(90), end: at(120)},
		// Another op's spans must not leak into op 1.
		{name: "funcsim.forward", op: 2, id: 5, start: at(200), end: at(250)},
		{name: "xbar.tile", op: 2, id: 6, parent: 5, start: at(200), end: at(250)},
	}
	self := selfTimes(spans)
	if got := self["funcsim.forward"][1]; got != 30*time.Millisecond {
		t.Errorf("op 1 forward self = %v, want 30ms", got)
	}
	if got := self["funcsim.forward"][2]; got != 0 {
		t.Errorf("op 2 forward self = %v, want 0", got)
	}
	if got := self["xbar.tile"][1]; got != 110*time.Millisecond {
		t.Errorf("op 1 tile self = %v, want 110ms (leaves keep their whole duration)", got)
	}
}

func TestCoveredNestedAndDisjoint(t *testing.T) {
	ivs := []span{
		{start: at(0), end: at(10)},
		{start: at(2), end: at(5)}, // nested inside the first
		{start: at(20), end: at(30)},
		{start: at(30), end: at(35)}, // touches the previous one
	}
	if got := covered(at(0), at(100), ivs); got != 25*time.Millisecond {
		t.Errorf("covered = %v, want 25ms", got)
	}
	if got := covered(at(0), at(100), nil); got != 0 {
		t.Errorf("covered(no children) = %v, want 0", got)
	}
}

func TestHighestPercentileCutoff(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0},  // no tail at all
		{10, 0}, // ten samples leave none beyond any percentile
		{11, 100 * (1 - 10.0/11)},
		{200, 95},  // exactly ten beyond p95
		{1000, 99}, // p99 needs a thousand samples
		{720, 100 * (1 - 10.0/720)},
	} {
		if got := highestPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %g, want 4.8", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %g, want 0", got)
	}
}

func TestWriteChromeParses(t *testing.T) {
	var buf bytes.Buffer
	spans := []span{
		{name: "b", op: 1, id: 2, parent: 1, start: at(5), end: at(6)},
		{name: "a", op: 1, id: 1, start: at(1), end: at(9)},
	}
	if err := writeChrome(&buf, at(0), spans); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) != 2 || tr.TraceEvents[0].Name != "a" || tr.TraceEvents[0].Ts != 1000 || tr.TraceEvents[0].Dur != 8000 {
		t.Errorf("unexpected events: %+v", tr.TraceEvents)
	}
	if tr.TraceEvents[1].Args["parent_id"] != float64(1) {
		t.Errorf("child lost its parent: %+v", tr.TraceEvents[1].Args)
	}
}
