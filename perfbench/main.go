// Command perfbench is the repository's end-to-end benchmark: it
// assembles the in-process /v1 stack in its streaming deployment,
// drives it with open-loop traffic through the typed client over a
// loopback listener, checks the outputs, and prints the metrics.
//
//	go run . --workload recommend --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it runs one untraced pass and reports the end-to-end
// metrics; with --trace 1 it runs an untraced and then a traced pass,
// each on a fresh stack, and reports the per-layer metrics of the
// traced pass, the tracing overhead, and each layer's self time, and
// writes the spans under the work directory. The last line of standard
// output is one JSON object; the human-readable report goes to
// standard error. See NOTES.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds the stack; setup_s is the
// median, so one slow start does not decide it.
const setupRepeats = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload: recommend, ingest or feed")
		seed    = flag.Uint64("seed", 1, "seed of the traffic")
		seconds = flag.Int("seconds", 30, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for stack files and traces")
	)
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	out, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(wl workload, seed uint64, seconds time.Duration, traced bool, workdir string) (*result, error) {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s: seed %d, %s window, trace %v\n", wl.name, seed, seconds, traced)
	fmt.Fprintf(w, "  host: nproc %d, GOMAXPROCS %d, %s, source %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceID())

	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	base, setup, err := pass(wl, seed, seconds, nil, repeats, workdir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "untraced pass (%s):\n", wl.why)
	describe(w, base)

	res := base
	metrics := endToEnd(base, setup)
	if traced {
		tr := &tracer{}
		if res, _, err = pass(wl, seed, seconds, tr, 1, workdir); err != nil {
			return nil, err
		}
		fmt.Fprintln(w, "traced pass:")
		describe(w, res)
		metrics = perLayer(res, base)
		path := filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  %d spans written to %s; self time by layer (ms):\n", len(tr.spans), path)
		self := selfTimes(tr.spans)
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "    %-10s %12.1f\n", l, self[l])
		}
	}
	fmt.Fprintln(w, "metrics:")
	writeMetrics(w, metrics)

	correct := len(res.failures) == 0 && len(base.failures) == 0 && len(res.invalid()) == 0 && len(base.invalid()) == 0
	att, failed := res.counts()
	return &result{Correct: correct, Attempted: att, Failed: failed, Metrics: metrics}, nil
}

// pass builds the stack repeats times, keeping the last, and drives the
// workload over it. It returns each build's set-up time in seconds.
func pass(wl workload, seed uint64, seconds time.Duration, tr *tracer, repeats int, workdir string) (*passResult, []float64, error) {
	var setup []float64
	var d *deployment
	for i := 0; i < repeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = setUp(workdir, tr != nil); err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	res, err := runPass(wl, d, seed, seconds, tr)
	if cerr := d.close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, setup, err
}

// sourceID names the code under test: the PERFBENCH_SOURCE environment
// variable, which the run script sets to the commit or a digest of the
// sources.
func sourceID() string {
	if s := os.Getenv("PERFBENCH_SOURCE"); s != "" {
		return s
	}
	return "unknown"
}
