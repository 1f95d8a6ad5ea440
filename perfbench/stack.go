package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
)

// The deployment under test: the documented streaming configuration of
// trserver, scaled so that the write path and the read path can both be
// driven steadily through one process on a 2-core host.
const (
	graphNodes    = 2000
	graphSeed     = 1
	landmarkCount = 20
	storeTopN     = 200
	queryDepth    = 2
	refreshBudget = 4
	halfLife      = 24 * time.Hour
	ingestQueue   = 4096
	ingestBatch   = 256
)

// deployment is one in-process /v1 stack behind a loopback listener.
type deployment struct {
	dir   string
	base  *graph.Graph
	reg   *metrics.Registry
	mgr   *dynamic.Manager
	wal   *store.WAL
	app   *timedApplier
	pipe  *ingest.Pipeline
	srv   *server.Server
	http  *http.Server
	url   string
	serve chan error
}

// setUp builds a fresh stack in a new directory under root: graph
// generation, landmark preprocessing, persistence files, ingest
// pipeline, server and listener. The graph is the same in every run;
// the workload seed only draws the traffic, so runs with different
// seeds measure the same deployment. trace makes the timing applier
// take Stats and registry deltas around each apply.
func setUp(root string, trace bool) (*deployment, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "stack-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir}
	if err := d.build(trace); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) build(trace bool) error {
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = graphNodes
	cfg.Seed = graphSeed
	ds, err := gen.Twitter(cfg)
	if err != nil {
		return fmt.Errorf("generating graph: %w", err)
	}
	d.base = ds.Graph
	lms, err := landmark.Select(ds.Graph, landmark.InDeg, landmarkCount, landmark.DefaultSelectConfig())
	if err != nil {
		return fmt.Errorf("selecting landmarks: %w", err)
	}
	d.wal, _, err = store.OpenWAL(filepath.Join(d.dir, "edges.wal"), store.SyncOS)
	if err != nil {
		return fmt.Errorf("opening WAL: %w", err)
	}
	d.reg = metrics.NewRegistry()
	d.mgr, err = dynamic.NewManager(ds.Graph, lms, dynamic.Config{
		Params:        core.DefaultParams(),
		Sim:           ds.Sim,
		StoreTopN:     storeTopN,
		QueryDepth:    queryDepth,
		Strategy:      dynamic.Eager,
		Scheduler:     dynamic.SchedPriority,
		RefreshBudget: refreshBudget,
		HalfLife:      halfLife,
		Metrics:       d.reg,
		WAL:           d.wal,
		SnapshotPath:  filepath.Join(d.dir, "graph.trg2"),
		LandmarkPath:  filepath.Join(d.dir, "landmarks.lmk3"),
		DecayPath:     filepath.Join(d.dir, "decay.trdk"),
	})
	if err != nil {
		return fmt.Errorf("building manager: %w", err)
	}
	d.app = &timedApplier{mgr: d.mgr, trace: trace,
		wall: d.reg.Histogram("landmark_preprocess_wall_seconds", "", nil)}
	d.pipe = ingest.New(d.app, ingest.Config{QueueCap: ingestQueue, MaxBatch: ingestBatch, Metrics: d.reg})
	d.srv = server.New(d.mgr, core.DefaultParams().Beta, server.WithMetrics(d.reg), server.WithIngest(d.pipe))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	d.url = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	d.serve = make(chan error, 1)
	go func() { d.serve <- d.http.Serve(ln) }()
	return nil
}

// close stops the stack and removes its directory: server and hub
// first (waking event streams), then the listener and its connections,
// then the pipeline and the log.
func (d *deployment) close() error {
	var errs []error
	if d.srv != nil {
		d.srv.Close()
	}
	if d.http != nil {
		errs = append(errs, d.http.Close())
		if err := <-d.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if d.pipe != nil {
		errs = append(errs, d.pipe.Close())
	}
	if d.wal != nil {
		errs = append(errs, d.wal.Close())
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// applyRecord is one batch as seen at the ingest.Applier boundary.
type applyRecord struct {
	start, end time.Time
	// ats are the batch's update stamps, which the generator sets to
	// each update's due time (Unix ns).
	ats []int64
	// Registry and Stats deltas across the call, taken only when
	// tracing: refresh wall time, refreshes and compactions.
	refreshWall            time.Duration
	refreshes, compactions int
	err                    error
}

// timedApplier sits between the ingest pipeline and the manager and
// records when each batch started and returned. The return of the
// Manager.Apply that installed an update's epoch is the instant the
// update became visible to reads.
type timedApplier struct {
	mgr   *dynamic.Manager
	trace bool
	wall  *metrics.Histogram // landmark_preprocess_wall_seconds

	mu   sync.Mutex
	recs []applyRecord
}

func (a *timedApplier) Apply(batch []dynamic.Update) error {
	rec := applyRecord{ats: make([]int64, len(batch))}
	for i, up := range batch {
		rec.ats[i] = up.At
	}
	var before dynamic.Stats
	var wallSum float64
	if a.trace {
		before = a.mgr.Stats()
		wallSum = a.wall.Sum()
	}
	rec.start = time.Now()
	rec.err = a.mgr.Apply(batch)
	rec.end = time.Now()
	if a.trace {
		after := a.mgr.Stats()
		rec.refreshWall = time.Duration((a.wall.Sum() - wallSum) * float64(time.Second))
		rec.refreshes = after.Refreshes - before.Refreshes
		rec.compactions = after.Compactions - before.Compactions
	}
	a.mu.Lock()
	a.recs = append(a.recs, rec)
	a.mu.Unlock()
	return rec.err
}

// records returns the batches applied so far.
func (a *timedApplier) records() []applyRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]applyRecord(nil), a.recs...)
}
