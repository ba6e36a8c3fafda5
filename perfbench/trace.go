package main

import (
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one round
// share Round (-1 for set-up work); Parent indexes the enclosing span, -1 at
// the top level. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, round int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Round: round, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// layerTime is the busy time of every span with one name: total is the sum
// of their durations, self subtracts the part their child spans cover.
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) layers() []layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalS += float64(d) / 1e9
		lt.SelfS += float64(d-child[i]) / 1e9
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// spanCost measures what recording one span costs where the benchmark runs, so the
// traced run can state its own overhead as spans × cost.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", 0))
	}
	return time.Since(start) / n
}
