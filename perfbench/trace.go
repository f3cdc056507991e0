package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, or a container grouping them.
// Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps the traced run's spans in memory. Leaf spans are named
// after the layer they time; "setup", "pass" and "op" spans only group
// them. A nil *tracer records nothing, so the untraced run pays one nil
// check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	// self sums each leaf span's duration by name.
	self map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: now(), self: make(map[string]time.Duration)}
}

// now is the benchmark's one read of the host clock; since measures
// from it.
func now() time.Time {
	return time.Now() //lint:ignore nondeterminism the benchmark measures host time
}

func since(t time.Time) time.Duration { return now().Sub(t) }

// containers are the grouping spans; every other name is a layer.
var containers = map[string]bool{"setup": true, "pass": true, "op": true}

func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(since(t.t0)), Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(since(t.t0))
	t.open = t.open[:len(t.open)-1]
	if !containers[s.Name] {
		t.self[s.Name] += time.Duration(s.End - s.Start)
	}
}

// rootTime sums the top-level spans: the traced wall time.
func (t *tracer) rootTime() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// layerTime sums every layer span. Layer spans never nest, so this is
// the layers' total self time.
func (t *tracer) layerTime() time.Duration {
	var d time.Duration
	for _, v := range t.self {
		d += v
	}
	return d
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
