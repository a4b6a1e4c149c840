package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one recorded interval: a call from the benchmark into a
// layer's public API, or a group of them. Times are nanoseconds since
// the process started. Parent is the index of the enclosing span (-1
// for a root). Req is the request index on serve-mix — the identifier
// the spans of one request share — and -1 elsewhere.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Tag    string `json:"tag,omitempty"`
}

// tracer keeps spans in memory until the benchmark ends. The nil tracer
// records nothing, so the untraced passes run the same code with the
// calls reduced to a nil check. It is used from one goroutine; the
// serve-mix lanes each fill their own tracer and merge afterwards.
type tracer struct {
	spans []span
}

// epoch is the zero of every span's clock, so the spans of several
// workloads and of serve-mix's lanes merge onto one time line.
var epoch = time.Now()

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(epoch).Nanoseconds(), Parent: parent, Req: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(epoch).Nanoseconds()
}

// merge appends another tracer's spans under parent, keeping their own
// nesting.
func (t *tracer) merge(o *tracer, parent int) {
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
