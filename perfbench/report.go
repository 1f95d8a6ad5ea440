package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timing is one latency distribution of a pass, with its tail rung.
type timing struct {
	name    string
	d       dist
	tailPct float64
	ok      bool // at least minBeyond samples beyond the tail
}

func newTiming(name string, xs []float64) timing {
	t := timing{name: name, d: newDist(xs)}
	t.tailPct, t.ok = tailPercentile(len(t.d))
	return t
}

func (t timing) p50() float64 { return t.d.p50() }

// tail is the value at the tail rung; with too few samples for any
// rung it is the maximum, and the run is invalid.
func (t timing) tail() float64 {
	if !t.ok {
		return t.d.at(100)
	}
	return t.d.at(t.tailPct)
}

// inWindow reports whether an offset lies in the measured window.
func (res *passResult) inWindow(at time.Duration) bool {
	return at >= res.window[0] && at < res.window[1]
}

// readLatencies returns due→decoded latencies of the window's
// successful reads, in ms.
func (res *passResult) readLatencies() []float64 {
	var out []float64
	for i, t := range res.readTim {
		if res.inWindow(t.due) && res.reads[i].err == nil {
			out = append(out, ms(t.latency()))
		}
	}
	return out
}

// visibility returns, for each accepted window write, its due→visible
// latency and its queue wait (due → start of its apply), in ms.
func (res *passResult) visibility() (lat, queueWait []float64) {
	byAt := make(map[int64]*applyRecord)
	for i := range res.applies {
		for _, at := range res.applies[i].ats {
			byAt[at] = &res.applies[i]
		}
	}
	for k, t := range res.writeTim {
		w := res.writes[res.prefix+k]
		a, ok := byAt[w.up.At]
		if !res.inWindow(t.due) || w.err != nil || !ok {
			continue
		}
		due := res.start.Add(t.due)
		lat = append(lat, ms(a.end.Sub(due)))
		queueWait = append(queueWait, ms(a.start.Sub(due)))
	}
	return lat, queueWait
}

// pushLatencies returns trigger-due→decoded latencies of the deltas
// whose triggering update was due in the window.
func (res *passResult) pushLatencies() []float64 {
	var out []float64
	for _, p := range res.pushes {
		if p.ev.TriggerUnixNs == 0 {
			continue
		}
		trig := time.Unix(0, p.ev.TriggerUnixNs)
		if res.inWindow(trig.Sub(res.start)) {
			out = append(out, ms(p.decoded.Sub(trig)))
		}
	}
	return out
}

// headline is the workload's user-facing latency.
func (res *passResult) headline() timing {
	switch res.wl.headline {
	case "visible":
		lat, _ := res.visibility()
		return newTiming("update_visible", lat)
	case "push":
		return newTiming("push", res.pushLatencies())
	default:
		return newTiming("recommend", res.readLatencies())
	}
}

// counts returns operations attempted and failed: every read and write
// the generator sent, prefix included. A 429 counts as failed.
func (res *passResult) counts() (attempted, failed int) {
	for _, r := range res.reads {
		attempted++
		if r.err != nil {
			failed++
		}
	}
	for _, w := range res.writes {
		attempted++
		if w.err != nil {
			failed++
		}
	}
	return attempted, failed
}

// rate is one traffic kind's realized rate against its target.
type rate struct {
	kind             string
	target, realized float64
}

// rates measures how much of each kind's window traffic went out in
// time: window operations over the time from the window's start to the
// later of its end and the last window operation's send.
func (res *passResult) rates() []rate {
	var out []rate
	for _, k := range []struct {
		kind   string
		target float64
		tim    []opTiming
	}{{"read", res.wl.readRate, res.readTim}, {"write", res.wl.writeRate, res.writeTim}} {
		if k.target == 0 {
			continue
		}
		n, end := 0, res.window[1]
		for _, t := range k.tim {
			if res.inWindow(t.due) {
				n++
				end = max(end, t.sent)
			}
		}
		out = append(out, rate{k.kind, k.target, float64(n) / (end - res.window[0]).Seconds()})
	}
	return out
}

// minRealized is the share of its target rate the generator must
// deliver for a run to count; below it the run is invalid, not
// relabelled with the rate it reached.
const minRealized = 0.95

// lateness returns the window operations' lateness in ms, as measured
// by of: the send lateness (opTiming.lateness) or the generator's own
// dispatch delay.
func (res *passResult) lateness(of func(opTiming) time.Duration) []float64 {
	var out []float64
	for _, tim := range [][]opTiming{res.readTim, res.writeTim} {
		for _, t := range tim {
			if res.inWindow(t.due) {
				out = append(out, ms(of(t)))
			}
		}
	}
	return out
}

func dispatchDelay(t opTiming) time.Duration { return t.dispatched - t.due }

// invalid returns why the pass's load does not count; nil when valid.
func (res *passResult) invalid() []string {
	var out []string
	for _, r := range res.rates() {
		if r.realized < minRealized*r.target {
			out = append(out, fmt.Sprintf("%s rate %.1f/s is %.1f%% of the %.0f/s target", r.kind, r.realized, 100*r.realized/r.target, r.target))
		}
	}
	if h := res.headline(); !h.ok {
		out = append(out, fmt.Sprintf("%s latency has %d samples, too few for a tail with %d beyond it", h.name, len(h.d), minBeyond))
	}
	return out
}

// endToEnd returns the untraced pass's end-to-end metrics.
func endToEnd(res *passResult, setup []float64) map[string]metric {
	h := res.headline()
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"latency_p50_ms":   {h.p50(), "ms"},
		"latency_tail_ms":  {h.tail(), "ms"},
		"retained_heap_mb": {res.heapMB, "MB"},
	}
}

// perLayer returns the traced pass's per-layer metrics; base is the
// untraced pass of the same run, for the tracing overhead.
func perLayer(res, base *passResult) map[string]metric {
	s0, s1 := res.snaps[0], res.snaps[1]
	out := make(map[string]metric)
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // the layer did no such work on this workload
		}
		out[name] = metric{v, unit}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// server and the read-side layers, from the client's view of each
	// window read: took_us is the server's own time for the request.
	var n, hits, coalesced float64
	var overhead, missTook, lmTook, trTook []float64
	for i, r := range res.reads {
		t := res.readTim[i]
		if !res.inWindow(t.due) || r.err != nil {
			continue
		}
		n++
		took := float64(r.tookUS) / 1000
		overhead = append(overhead, ms(t.done-t.sent)-took)
		switch r.cache {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		case "miss":
			missTook = append(missTook, took)
			if r.exact {
				trTook = append(trTook, took)
			} else {
				lmTook = append(lmTook, took)
			}
		}
	}
	put("server.cache_hit_ratio", ratio(hits, n), "ratio")
	put("server.coalesced_share", ratio(coalesced, n), "ratio")
	put("server.http_overhead_ms_p50", newDist(overhead).p50(), "ms")
	put("server.miss_took_ms_p99", newDist(missTook).at(99), "ms")
	put("landmark.query_ms_p50", newDist(lmTook).p50(), "ms")
	put("core.exact_ms_p50", newDist(trTook).p50(), "ms")
	put("core.exact_ms_p99", newDist(trTook).at(99), "ms")
	put("core.scored_nodes_mean", ratio(s1.scoredSum-s0.scoredSum, float64(s1.scoredN-s0.scoredN)), "nodes")

	// dynamic, landmark refresh and graph, from the applier records of
	// batches that started in the window.
	var apply, other, size []float64
	for _, a := range res.applies {
		if !res.inWindow(a.start.Sub(res.start)) {
			continue
		}
		apply = append(apply, ms(a.end.Sub(a.start)))
		other = append(other, ms(a.end.Sub(a.start)-a.refreshWall))
		size = append(size, float64(len(a.ats)))
	}
	batches := float64(s1.stats.Batches - s0.stats.Batches)
	put("dynamic.apply_ms_p50", newDist(apply).p50(), "ms")
	put("dynamic.apply_ms_p99", newDist(apply).at(99), "ms")
	put("dynamic.apply_other_ms_p50", newDist(other).p50(), "ms")
	put("dynamic.batch_updates_mean", mean(size), "updates")
	put("landmark.refresh_ms_mean", 1000*ratio(s1.refreshWall-s0.refreshWall, float64(s1.refreshRuns-s0.refreshRuns)), "ms")
	put("landmark.refreshes_per_batch", ratio(float64(s1.stats.Refreshes-s0.stats.Refreshes), batches), "refreshes")
	var lockWait, depth []float64
	for _, p := range res.probes {
		if res.inWindow(p.at) {
			lockWait = append(lockWait, ms(p.wait))
			depth = append(depth, float64(p.overlayDepth))
		}
	}
	put("dynamic.lock_wait_ms_p99", newDist(lockWait).at(99), "ms")
	put("graph.overlay_depth_mean", mean(depth), "layers")
	put("graph.compactions", float64(s1.stats.Compactions-s0.stats.Compactions), "count")

	// ingest and store.
	_, wait := res.visibility()
	depthMax := 0
	for k, t := range res.writeTim {
		if w := res.writes[res.prefix+k]; res.inWindow(t.due) && w.err == nil {
			depthMax = max(depthMax, w.queueDepth)
		}
	}
	put("ingest.queue_wait_ms_p50", newDist(wait).p50(), "ms")
	put("ingest.queue_wait_ms_p99", newDist(wait).at(99), "ms")
	put("ingest.queue_depth_max", float64(depthMax), "updates")
	put("ingest.rejected", float64(s1.rejected-s0.rejected), "updates")
	put("store.wal_bytes_per_update", ratio(float64(s1.walBytes-s0.walBytes), float64(s1.ingested-s0.ingested)), "bytes")
	put("store.snapshot_writes", float64(s1.stats.SnapshotWrites-s0.stats.SnapshotWrites), "count")

	// subscribe.
	marks := float64(s1.marks - s0.marks)
	rescores := float64(s1.rescores - s0.rescores)
	put("subscribe.marks_per_batch", ratio(marks, batches), "marks")
	put("subscribe.coalesce_ratio", ratio(float64(s1.coalesced-s0.coalesced), marks), "ratio")
	put("subscribe.pushed_per_rescore", ratio(float64(s1.pushed-s0.pushed), rescores), "ratio")
	put("subscribe.ring_ms_mean", 1000*ratio(s1.ringSum-s0.ringSum, float64(s1.ringN-s0.ringN)), "ms")
	put("subscribe.dirty_queue_max", float64(res.dirtyMax), "groups")

	// Tracing overhead: traced minus untraced headline latency.
	h, hb := res.headline(), base.headline()
	put("trace.overhead_p50_ms", h.p50()-hb.p50(), "ms")
	put("trace.overhead_tail_ms", h.tail()-hb.tail(), "ms")
	return out
}

// writeMetrics prints metrics sorted by name, one per line.
func writeMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// describe prints the pass's validity stamp and every latency the
// workload produces, under the names of the paper's user-facing
// quantities, with sample counts and tail rungs.
func describe(w io.Writer, res *passResult) {
	for _, r := range res.rates() {
		fmt.Fprintf(w, "  %s rate: target %.0f/s realized %.2f/s (%.3f)\n", r.kind, r.target, r.realized, r.realized/r.target)
	}
	late, disp := newDist(res.lateness(opTiming.lateness)), newDist(res.lateness(dispatchDelay))
	fmt.Fprintf(w, "  generator lateness: send p50 %.3f ms p99 %.3f ms; dispatch p50 %.3f ms p99 %.3f ms\n",
		late.p50(), late.at(99), disp.p50(), disp.at(99))
	vis, _ := res.visibility()
	for _, t := range []timing{
		newTiming("recommend", res.readLatencies()),
		newTiming("update_visible", vis),
		newTiming("push", res.pushLatencies()),
	} {
		if len(t.d) == 0 {
			continue
		}
		tail := "max"
		if t.ok {
			tail = fmt.Sprintf("p%g", t.tailPct)
		}
		fmt.Fprintf(w, "  %s_p50_ms %.3f  %s_tail_ms %.3f (%s, n=%d); p90 %.3f p95 %.3f p99 %.3f max %.3f\n",
			t.name, t.p50(), t.name, t.tail(), tail, len(t.d), t.d.at(90), t.d.at(95), t.d.at(99), t.d.at(100))
	}
	att, failed := res.counts()
	fmt.Fprintf(w, "  error_rate %.6f ratio (%d failed of %d)\n", float64(failed)/float64(att), failed, att)
	if bad := res.invalid(); len(bad) > 0 {
		fmt.Fprintf(w, "  INVALID: %s\n", strings.Join(bad, "; "))
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
}
