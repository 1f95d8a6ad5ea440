package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// specNames returns the metric names BENCHMARK.json lists under key.
func specNames(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// checkNames fails unless got reports exactly the names BENCHMARK.json
// lists under key.
func checkNames(t *testing.T, key string, got map[string]metric) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	want := specNames(t, key)
	if len(names) != len(want) {
		t.Fatalf("%s: reported %v, BENCHMARK.json lists %v", key, names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("%s: reported %v, BENCHMARK.json lists %v", key, names, want)
		}
	}
}

// A short run of each workload over the real deployment: every output
// check holds and no operation fails. The traced feed pass also fills
// every per-layer metric.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three stacks")
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			wl.warm = 500 * time.Millisecond
			var tr *tracer
			if wl.name == "feed" {
				tr = &tracer{}
			}
			d, err := setUp(t.TempDir(), tr != nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runPass(wl, d, 1, 2*time.Second, tr)
			if cerr := d.close(); cerr != nil {
				t.Error(cerr)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.failures {
				t.Error(f)
			}
			if att, failed := res.counts(); att == 0 || failed != 0 {
				t.Errorf("%d of %d operations failed", failed, att)
			}
			if h := res.headline(); len(h.d) == 0 {
				t.Errorf("no %s latency samples", h.name)
			}
			e := endToEnd(res, []float64{1})
			checkNames(t, "end_to_end", e)
			for n, m := range e {
				if m.Value <= 0 {
					t.Errorf("%s = %g", n, m.Value)
				}
			}
			if tr != nil {
				checkNames(t, "per_layer", perLayer(res, res))
				if len(tr.spans) == 0 {
					t.Error("traced pass recorded no spans")
				}
			}
		})
	}
}
