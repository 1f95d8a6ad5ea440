package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/topics"
)

// workload is one traffic mix. Rates are open-loop targets; the first
// warm of the schedule runs but is excluded from every metric.
type workload struct {
	name, why string
	// readRate (GET /v1/recommend per second) and writeRate
	// (single-update POST /v1/update per second).
	readRate, writeRate float64
	// exactShare of reads ask for exact Tr instead of the landmark
	// method.
	exactShare float64
	// prefix updates are applied and flushed before the schedule starts.
	prefix int
	// subs standing queries are registered, the first tailed of them
	// over SSE; toggleShare of the writes are follow/unfollow toggles
	// from the tailed subscribers' users.
	subs, tailed int
	toggleShare  float64
	warm         time.Duration
	// headline names the latency reported as latency_p50_ms and
	// latency_tail_ms: "read", "visible" or "push".
	headline string
}

// workloads is the benchmark's traffic. The rates put each mix at a
// steady operating point on a 2-core host (NOTES.md has the sizing
// measurements): recommend where the manager lock, which every landmark
// and exact query takes, is rarely contended, so a stall of the host
// does not queue reads behind it; ingest below the rate where batches
// grow into full authority recomputes; feed below the write rate at
// which apply and refresh hold the lock most of the time.
var workloads = []workload{
	{
		name:       "recommend",
		why:        "read-only: cache, coalescing, admission, landmark query and exact exploration do all the work",
		readRate:   200,
		exactShare: 0.05,
		prefix:     200,
		warm:       2 * time.Second,
		headline:   "read",
	},
	{
		name:      "ingest",
		why:       "write-only: ingest queue, apply, refresh and WAL do all the work; reads and the hub are idle",
		writeRate: 30,
		warm:      2 * time.Second,
		headline:  "visible",
	},
	{
		name:        "feed",
		why:         "mixed: reads, applies and standing-query re-scores compete for the one manager lock",
		readRate:    50,
		writeRate:   3,
		subs:        8,
		tailed:      2,
		exactShare:  0.05,
		toggleShare: 0.8,
		warm:        2 * time.Second,
		headline:    "push",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Read mix: Zipf-ranked (user, topic) keys, more than the 4,096-entry
// result cache holds.
const (
	keySpaceSize = 20000
	zipfS        = 0.9
	resultN      = 10
)

// readRec is one GET /v1/recommend as the client saw it.
type readRec struct {
	key    readKey
	exact  bool
	err    error
	tookUS int64
	cache  string
	bad    string // why the answer is malformed; "" when valid
}

// writeRec is one POST /v1/update.
type writeRec struct {
	up         dynamic.Update
	err        error
	queueDepth int
}

// pushRec is one SSE delta decoded by a tailed subscriber.
type pushRec struct {
	sub     int
	ev      client.Event
	decoded time.Time
}

// probeRec is one Manager.Stats() lock probe (traced runs only).
type probeRec struct {
	at, wait     time.Duration
	overlayDepth int
}

// regSnap is the registry and Stats state at one instant.
type regSnap struct {
	stats                              dynamic.Stats
	refreshWall                        float64
	refreshRuns                        uint64
	scoredSum, ringSum                 float64
	scoredN, ringN                     uint64
	marks, coalesced, rescores, pushed uint64
	rejected, walBytes, ingested       uint64
}

func snapshot(d *deployment) regSnap {
	r := d.reg
	wall := r.Histogram("landmark_preprocess_wall_seconds", "", nil)
	scored := r.Histogram("core_explore_scored_nodes", "", metrics.ExponentialBuckets(10, 10, 7))
	ring := r.Histogram("subscribe_push_latency_seconds", "", nil)
	c := func(name string) uint64 { return r.Counter(name, "").Value() }
	return regSnap{
		stats:       d.mgr.Stats(),
		refreshWall: wall.Sum(), refreshRuns: wall.Count(),
		scoredSum: scored.Sum(), scoredN: scored.Count(),
		ringSum: ring.Sum(), ringN: ring.Count(),
		marks:     c("subscribe_rescore_marks_total"),
		coalesced: c("subscribe_rescores_coalesced_total"),
		rescores:  c("subscribe_rescores_total"),
		pushed:    c("subscribe_events_pushed_total"),
		rejected:  c("ingest_rejected_total"),
		ingested:  c("ingest_applied_total"),
		walBytes:  d.wal.AppendedBytes(),
	}
}

// passResult is everything one pass over a fresh stack observed.
type passResult struct {
	wl      workload
	start   time.Time // schedule anchor
	window  [2]time.Duration
	keys    *keySpace
	reads   []readRec
	readTim []opTiming
	// writes covers the prefix (sent before start, no timing) followed
	// by the scheduled writes, whose timings are writeTim.
	writes   []writeRec
	writeTim []opTiming
	prefix   int
	applies  []applyRecord
	pushes   []pushRec
	probes   []probeRec
	dirtyMax int
	snaps    [2]regSnap
	heapMB   float64
	failures []string // output checks that did not hold
}

// runPass drives one workload over the deployment d. tr, when non-nil,
// receives spans and enables the probes and per-apply deltas.
func runPass(wl workload, d *deployment, seed uint64, seconds time.Duration, tr *tracer) (*passResult, error) {
	ctx := context.Background()
	g := d.base
	vocab := g.Vocabulary()
	res := &passResult{wl: wl, window: [2]time.Duration{wl.warm, wl.warm + seconds}}

	workers := runtime.NumCPU()
	reqHTTP := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
	}}
	defer reqHTTP.CloseIdleConnections()
	c := client.New(d.url, reqHTTP)
	// Event streams and probes ride their own connections, so they never
	// take a request connection from the load.
	sideHTTP := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer sideHTTP.CloseIdleConnections()
	side := client.New(d.url, sideHTTP)

	// Inputs, all drawn from the seed.
	ks, err := newKeySpace(g.NumNodes(), vocab.Len(), keySpaceSize, zipfS, seed)
	if err != nil {
		return nil, err
	}
	res.keys = ks
	total := wl.warm + seconds
	nReads := int(wl.readRate * total.Seconds())
	nWrites := int(wl.writeRate * total.Seconds())
	// The standing queries belong to the deployment, like the graph: the
	// hottest keys of the dataset seed's key space, whatever the traffic
	// seed. Which users they follow decides which landmarks every toggle
	// makes stale, so drawing them per seed would change the work a push
	// costs from seed to seed.
	fixed, err := newKeySpace(g.NumNodes(), vocab.Len(), keySpaceSize, zipfS, graphSeed)
	if err != nil {
		return nil, err
	}
	subKeys := fixed.keys[:wl.subs]
	tailed := min(wl.tailed, workers) // at most one event stream per CPU
	var togglers []readKey
	if tailed > 0 {
		togglers = subKeys[:tailed]
	}
	stream, err := writeStream(g, wl.prefix+nWrites, seed, togglers, wl.toggleShare)
	if err != nil {
		return nil, err
	}
	res.prefix = wl.prefix
	res.writes = make([]writeRec, len(stream))
	for i, up := range stream {
		res.writes[i].up = up
	}
	rr := rand.New(rand.NewPCG(seed, 0x72656164))
	res.reads = make([]readRec, nReads)
	for i := range res.reads {
		res.reads[i].key = ks.draw(rr)
		res.reads[i].exact = rr.Float64() < wl.exactShare
	}

	post := func(i int) {
		w := &res.writes[i]
		e := w.up.Edge
		resp, err := c.Update(ctx, []client.UpdateItem{{
			Src: uint32(e.Src), Dst: uint32(e.Dst), Topics: splitLabel(vocab, e), Remove: !w.up.Add, At: w.up.At,
		}})
		w.err = err
		if err == nil {
			w.queueDepth = resp.QueueDepth
		}
	}

	// Prefix: applied and flushed before anything is timed.
	for i := 0; i < wl.prefix; i++ {
		res.writes[i].up.At = time.Now().UnixNano()
		post(i)
	}
	if err := d.pipe.Flush(); err != nil {
		return nil, fmt.Errorf("flushing prefix: %w", err)
	}

	// Standing queries: register all, tail the first ones.
	var tails sync.WaitGroup
	var pushMu sync.Mutex
	tailCtx, stopTails := context.WithCancel(ctx)
	defer func() { stopTails(); tails.Wait() }()
	subs := make([]*client.Subscription, len(subKeys))
	for i, k := range subKeys {
		s, err := c.Subscribe(ctx, client.RecommendRequest{User: int(k.user), Topic: vocab.Name(k.topic), N: resultN, Method: "landmark"})
		if err != nil {
			return nil, fmt.Errorf("subscribing %v: %w", k, err)
		}
		subs[i] = s
		if i >= tailed {
			continue
		}
		es, err := side.Events(tailCtx, s.ID, 0)
		if err != nil {
			return nil, fmt.Errorf("tailing %s: %w", s.ID, err)
		}
		first, err := es.Next()
		if err != nil {
			return nil, fmt.Errorf("first event of %s: %w", s.ID, err)
		}
		res.pushes = append(res.pushes, pushRec{sub: i, ev: first, decoded: time.Now()})
		tails.Add(1)
		go func(i int, es *client.EventStream) {
			defer tails.Done()
			defer es.Close()
			for {
				ev, err := es.Next()
				if err != nil {
					return
				}
				now := time.Now()
				pushMu.Lock()
				res.pushes = append(res.pushes, pushRec{sub: i, ev: ev, decoded: now})
				pushMu.Unlock()
			}
		}(i, es)
	}

	// The schedule: reads and writes merged in due order.
	readDue := schedule(nReads, wl.readRate, 0)
	var writePhase time.Duration // half a gap, so writes fall between reads
	if wl.writeRate > 0 {
		writePhase = time.Duration(float64(time.Second) / wl.writeRate / 2)
	}
	writeDue := schedule(nWrites, wl.writeRate, writePhase)
	type opRef struct {
		write bool
		i     int
	}
	var ops []opRef
	var due []time.Duration
	var ordered []bool
	for ri, wi := 0, 0; ri < nReads || wi < nWrites; {
		if wi < nWrites && (ri == nReads || writeDue[wi] < readDue[ri]) {
			ops, due, ordered = append(ops, opRef{true, wl.prefix + wi}), append(due, writeDue[wi]), append(ordered, true)
			wi++
		} else {
			ops, due, ordered = append(ops, opRef{false, ri}), append(due, readDue[ri]), append(ordered, false)
			ri++
		}
	}

	res.start = time.Now().Add(50 * time.Millisecond)
	for k, op := range ops {
		if op.write {
			res.writes[op.i].up.At = res.start.Add(due[k]).UnixNano()
		}
	}
	tim := &openLoop{due: due, ordered: ordered, workers: workers}
	tim.exec = func(_, k int) {
		op := ops[k]
		if op.write {
			post(op.i)
			return
		}
		r := &res.reads[op.i]
		method := "landmark"
		if r.exact {
			method = "tr"
		}
		resp, err := c.Recommend(ctx, client.RecommendRequest{User: int(r.key.user), Topic: vocab.Name(r.key.topic), N: resultN, Method: method})
		r.err = err
		if err == nil {
			r.tookUS, r.cache = resp.TookUS, resp.Cache
			r.bad = validateAnswer(resp, resultN, g.NumNodes())
		}
	}

	// Window snapshots and, when tracing, the probes.
	var snapWG sync.WaitGroup
	snapWG.Add(2)
	for k, at := range res.window {
		time.AfterFunc(time.Until(res.start.Add(at)), func() {
			defer snapWG.Done()
			res.snaps[k] = snapshot(d)
		})
	}
	probeStop := make(chan struct{})
	var probeWG sync.WaitGroup
	if tr != nil {
		probeWG.Add(2)
		go func() {
			defer probeWG.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-probeStop:
					return
				case <-tick.C:
				}
				t0 := time.Since(res.start)
				st := d.mgr.Stats()
				res.probes = append(res.probes, probeRec{at: t0, wait: time.Since(res.start) - t0, overlayDepth: st.OverlayDepth})
			}
		}()
		go func() {
			defer probeWG.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-probeStop:
					return
				case <-tick.C:
				}
				if st, err := side.Stats(ctx); err == nil && st.Subscriptions != nil {
					res.dirtyMax = max(res.dirtyMax, st.Subscriptions.DirtyQueue)
				}
			}
		}()
	}

	timings := tim.run(res.start)
	close(probeStop)
	probeWG.Wait()
	snapWG.Wait()
	for k, op := range ops {
		if op.write {
			res.writeTim = append(res.writeTim, timings[k])
		} else {
			res.readTim = append(res.readTim, timings[k])
		}
	}

	// Quiesce: every accepted update applied, the hub drained and the
	// tailed streams caught up.
	if err := d.pipe.Flush(); err != nil {
		return nil, fmt.Errorf("flushing: %w", err)
	}
	if wl.subs > 0 {
		if err := quiesceHub(ctx, side, d.reg); err != nil {
			return nil, err
		}
	}
	res.applies = d.app.records()
	res.checkAll(ctx, d, side, subs[:tailed], &pushMu)
	stopTails()
	tails.Wait()

	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	res.heapMB = float64(mst.HeapAlloc) / (1 << 20)

	if tr != nil {
		res.recordSpans(tr)
	}
	return res, nil
}

// quiesceHub waits until no subscription group is queued for a re-score
// and the re-score count stops moving.
func quiesceHub(ctx context.Context, c *client.Client, reg *metrics.Registry) error {
	rescores := reg.Counter("subscribe_rescores_total", "")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Stats(ctx)
		if err != nil {
			return fmt.Errorf("quiescing hub: %w", err)
		}
		before := rescores.Value()
		if st.Subscriptions != nil && st.Subscriptions.DirtyQueue == 0 {
			time.Sleep(50 * time.Millisecond)
			if rescores.Value() == before {
				return nil
			}
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	return errors.New("quiescing hub: re-scores did not settle within 30s")
}

// splitLabel names the topics of an edge label for the wire.
func splitLabel(v *topics.Vocabulary, e graph.Edge) []string {
	var out []string
	e.Label.ForEach(func(t topics.ID) { out = append(out, v.Name(t)) })
	return out
}
