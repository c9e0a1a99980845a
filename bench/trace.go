package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Parent is the ID of the enclosing span (0 for a
// root); spans of one request share ReqID.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	ReqID  string         `json:"req_id,omitempty"`
	TID    int            `json:"tid"`
	Start  int64          `json:"start_ns"` // Unix nanoseconds
	End    int64          `json:"end_ns"`
	Args   map[string]any `json:"args,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay only a nil check per call.
type recorder struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// spanRef is an open span; the zero value (from a nil recorder) is inert.
type spanRef struct {
	r      *recorder
	id     int64
	parent int64
	name   string
	tid    int
	reqID  string
	start  time.Time
}

func (r *recorder) begin(name string, parent spanRef, tid int, reqID string) spanRef {
	if r == nil {
		return spanRef{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return spanRef{r: r, id: id, parent: parent.id, name: name, tid: tid, reqID: reqID, start: time.Now()}
}

// end closes the span; kv holds alternating argument names and values.
func (s spanRef) end(kv ...any) {
	if s.r == nil {
		return
	}
	sp := span{ID: s.id, Parent: s.parent, Name: s.name, ReqID: s.reqID, TID: s.tid,
		Start: s.start.UnixNano(), End: time.Now().UnixNano()}
	if len(kv) > 0 {
		sp.Args = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			sp.Args[fmt.Sprint(kv[i])] = kv[i+1]
		}
	}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, sp)
	s.r.mu.Unlock()
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// adopt merges spans recorded by a child process under the span that ran
// it, shifting their IDs past every ID this recorder has handed out.
func (r *recorder) adopt(spans []span, under spanRef, tidOffset int) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.next
	for _, sp := range spans {
		sp.ID += base
		if sp.Parent == 0 {
			sp.Parent = under.id
		} else {
			sp.Parent += base
		}
		sp.TID += tidOffset
		r.spans = append(r.spans, sp)
		if sp.ID > r.next {
			r.next = sp.ID
		}
	}
}

// selfTimes returns, per span name, the mean self time in milliseconds: a
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	sum := make(map[string]float64)
	n := make(map[string]int)
	for _, sp := range spans {
		covered := coveredNS(sp, children[sp.ID])
		sum[sp.Name] += float64(sp.End-sp.Start-covered) / 1e6
		n[sp.Name]++
	}
	out := make(map[string]float64, len(sum))
	for k, v := range sum {
		out[k] = v / float64(n[k])
	}
	return out
}

// coveredNS is the length of the union of the children's intervals, clipped
// to the parent's.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// chromeEvent mirrors the complete-event layout internal/trace emits for
// simulator timelines, with structured args.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes one workload's spans as Chrome trace-event JSON,
// which Perfetto and chrome://tracing load. Parent links and request IDs
// ride in each event's args.
func writeChromeTrace(path, workload string, spans []span) error {
	var t0 int64
	for _, sp := range spans {
		if t0 == 0 || sp.Start < t0 {
			t0 = sp.Start
		}
	}
	events := []chromeEvent{{Name: "process_name", Phase: "M", PID: 1, Args: map[string]any{"name": workload}}}
	for _, sp := range spans {
		args := map[string]any{"span_id": sp.ID}
		if sp.Parent != 0 {
			args["parent_id"] = sp.Parent
		}
		if sp.ReqID != "" {
			args["request_id"] = sp.ReqID
		}
		for k, v := range sp.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{Name: sp.Name, Cat: "bench", Phase: "X",
			TS: float64(sp.Start-t0) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
			PID: 1, TID: sp.TID, Args: args})
	}
	out, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
