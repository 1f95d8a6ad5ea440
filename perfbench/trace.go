package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request,
// update or pushed event share a trace id; Parent names the span that
// caused this one (0 for a root). Start and End are offsets from the
// run's start in nanoseconds.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts are counter deltas taken at the span's boundaries.
	Counts map[string]int `json:"counts,omitempty"`
}

// layer is the span name's prefix up to the first dot: the module the
// interval was spent in.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends; only traced passes
// have one.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its id for children to reference.
func (t *tracer) add(trace, name string, parent int, start, end time.Duration, counts map[string]int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end), Counts: counts})
	return id
}

// selfTimes returns each layer's self time in milliseconds: every
// span's duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.layer()] += float64(s.End-s.Start-covered) / float64(time.Millisecond)
	}
	return out
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return w.Flush()
}

// recordSpans turns the pass's records into spans: each client request
// with its wait for a connection and the server's took_us, each
// update's queue wait, each Applier.Apply call with the refresh wall
// time inside it, each lock probe and each SSE delivery.
func (res *passResult) recordSpans(tr *tracer) {
	off := func(t time.Time) time.Duration { return t.Sub(res.start) }
	for i, r := range res.reads {
		t := res.readTim[i]
		id := fmt.Sprintf("r%d", i)
		root := tr.add(id, "client.recommend", 0, t.due, t.done, nil)
		tr.add(id, "loadgen.wait", root, t.due, t.sent, nil)
		if r.err != nil {
			continue
		}
		name := "server.cache"
		if r.cache == "miss" {
			name = "landmark.query"
			if r.exact {
				name = "core.exact"
			}
		}
		// The server's interval sits inside the round trip; its exact
		// position is unknown, so it is centred.
		took := time.Duration(r.tookUS) * time.Microsecond
		from := t.sent + (t.done-t.sent-took)/2
		tr.add(id, name, root, from, from+took, nil)
	}
	for k, t := range res.writeTim {
		id := fmt.Sprintf("w%d", k)
		root := tr.add(id, "client.update", 0, t.due, t.done, nil)
		tr.add(id, "loadgen.wait", root, t.due, t.sent, nil)
	}
	startOf := make(map[int64]time.Time)
	for k, a := range res.applies {
		id := fmt.Sprintf("b%d", k)
		name := "dynamic.apply"
		if a.compactions > 0 {
			name = "dynamic.apply_compacting"
		}
		root := tr.add(id, name, 0, off(a.start), off(a.end), map[string]int{
			"updates": len(a.ats), "refreshes": a.refreshes, "compactions": a.compactions,
		})
		if a.refreshWall > 0 {
			// Refreshes run at the end of the apply, after the overlay
			// installs.
			tr.add(id, "landmark.refresh", root, off(a.end)-a.refreshWall, off(a.end), nil)
		}
		for _, at := range a.ats {
			startOf[at] = a.start
		}
	}
	for k, t := range res.writeTim {
		if s, ok := startOf[res.writes[res.prefix+k].up.At]; ok {
			tr.add(fmt.Sprintf("u%d", k), "ingest.queue_wait", 0, t.due, off(s), nil)
		}
	}
	for k, p := range res.probes {
		tr.add(fmt.Sprintf("p%d", k), "dynamic.lock_probe", 0, p.at, p.at+p.wait, nil)
	}
	for _, p := range res.pushes {
		if p.ev.TriggerUnixNs != 0 {
			tr.add(fmt.Sprintf("s%d.%d", p.sub, p.ev.Seq), "subscribe.push", 0,
				off(time.Unix(0, p.ev.TriggerUnixNs)), off(p.decoded), nil)
		}
	}
}
