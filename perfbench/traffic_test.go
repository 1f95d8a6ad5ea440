package main

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestKeyDrawsDeterministicPerSeed(t *testing.T) {
	draws := func(seed uint64) []readKey {
		ks, err := newKeySpace(2000, 12, keySpaceSize, zipfS, seed)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewPCG(seed, 1))
		out := make([]readKey, 500)
		for i := range out {
			out[i] = ks.draw(r)
		}
		return out
	}
	a, b, c := draws(7), draws(7), draws(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed drew different keys")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same keys")
	}
}

func TestKeySpaceIsZipfRanked(t *testing.T) {
	ks, err := newKeySpace(2000, 12, keySpaceSize, zipfS, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[readKey]bool)
	for _, k := range ks.keys {
		if seen[k] {
			t.Fatalf("key %v drawn twice", k)
		}
		seen[k] = true
	}
	r := rand.New(rand.NewPCG(3, 1))
	counts := make(map[readKey]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[ks.draw(r)]++
	}
	// Draw shares follow the CDF: the head and the ranks beyond the
	// 4096-entry result cache (about a quarter of draws at s=0.9).
	head := float64(counts[ks.keys[0]]) / n
	tail := 0
	for _, k := range ks.keys[4096:] {
		tail += counts[k]
	}
	if want := ks.cdf[0]; math.Abs(head-want) > 0.05*want {
		t.Errorf("rank 0 share %.4f, want %.4f", head, want)
	}
	if want, got := 1-ks.cdf[4095], float64(tail)/n; math.Abs(got-want) > 0.05*want || want < 0.2 {
		t.Errorf("share beyond rank 4096 is %.4f, want %.4f (and at least 0.2)", got, want)
	}
	if counts[ks.keys[0]] <= counts[ks.keys[10]] || counts[ks.keys[10]] <= counts[ks.keys[1000]] {
		t.Error("draw counts do not fall with rank")
	}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	cfg := gen.DefaultTwitterConfig()
	cfg.Nodes = 500
	ds, err := gen.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

func TestWriteStreamDeterministicPerSeed(t *testing.T) {
	g := testGraph(t)
	togglers := []readKey{{user: 3, topic: 1}, {user: 9, topic: 2}}
	a, err := writeStream(g, 300, 5, togglers, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := writeStream(g, 300, 5, togglers, 0.8)
	c, _ := writeStream(g, 300, 6, togglers, 0.8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed generated different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds generated the same stream")
	}
	toggles := 0
	for _, up := range a {
		if up.Edge.Src == 3 || up.Edge.Src == 9 {
			toggles++
		}
	}
	if toggles < 100 {
		t.Errorf("%d of 300 events come from the togglers, want most", toggles)
	}
}

// Every event of a sanitized stream changes the graph, and no edge
// comes back after a removal, so batching cannot change the outcome.
func TestWriteStreamIsBatchingIndependent(t *testing.T) {
	g := testGraph(t)
	ups, err := writeStream(g, 400, 11, []readKey{{user: 1, topic: 0}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[graph.EdgeKey]bool)
	for _, e := range g.Edges() {
		live[graph.KeyOf(e.Src, e.Dst)] = true
	}
	removed := make(map[graph.EdgeKey]bool)
	for i, up := range ups {
		k := graph.KeyOf(up.Edge.Src, up.Edge.Dst)
		if up.Add == live[k] || (up.Add && removed[k]) {
			t.Fatalf("event %d (%+v) is a no-op or a re-add", i, up)
		}
		live[k] = up.Add
		removed[k] = removed[k] || !up.Add
	}
}
