package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/churn"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/topics"
)

// readKey is one (user, topic) recommendation key of the read mix.
type readKey struct {
	user  graph.NodeID
	topic topics.ID
}

// keySpace is the Zipf-ranked read key population: rank 0 is the
// hottest key. It is larger than the server's result cache, so the
// cache holds the head of the distribution and the tail misses.
type keySpace struct {
	keys []readKey
	cdf  []float64
}

// newKeySpace draws size distinct (user, topic) keys in a seeded random
// rank order and weights rank r by 1/(r+1)^s.
func newKeySpace(nodes, vocab, size int, s float64, seed uint64) (*keySpace, error) {
	if size > nodes*vocab {
		return nil, fmt.Errorf("key space of %d exceeds %d users x %d topics", size, nodes, vocab)
	}
	r := rand.New(rand.NewPCG(seed, 0x6b657973))
	perm := r.Perm(nodes * vocab)[:size]
	ks := &keySpace{keys: make([]readKey, size), cdf: make([]float64, size)}
	total := 0.0
	for i, p := range perm {
		ks.keys[i] = readKey{user: graph.NodeID(p / vocab), topic: topics.ID(p % vocab)}
		total += math.Pow(float64(i+1), -s)
		ks.cdf[i] = total
	}
	for i := range ks.cdf {
		ks.cdf[i] /= total
	}
	return ks, nil
}

// draw returns the key at a Zipf-distributed rank.
func (ks *keySpace) draw(r *rand.Rand) readKey {
	i := sort.SearchFloat64s(ks.cdf, r.Float64())
	if i == len(ks.keys) {
		i--
	}
	return ks.keys[i]
}

// writeStream is the follow/unfollow stream for a run: the churn
// generator's events, optionally interleaved with toggles (follow, then
// later unfollow) from given users toward high in-degree accounts.
//
// The stream is sanitized so that its outcome does not depend on how
// the ingest pipeline batches it: an edge never comes back once removed
// and is never added while present. Within one batch the manager lets a
// removal win over an add of the same edge, which would differ from
// sequential application only for a remove followed by a re-add.
func writeStream(g graph.View, n int, seed uint64, togglers []readKey, toggleShare float64) ([]dynamic.Update, error) {
	cfg := churn.DefaultConfig()
	cfg.Events = n + n/2 + 16 // headroom for events the sanitizer drops
	cfg.Seed = seed
	raw, err := churn.Generate(g, cfg)
	if err != nil {
		return nil, err
	}
	if len(togglers) > 0 && toggleShare > 0 {
		raw = interleaveToggles(g, raw, togglers, toggleShare, seed)
	}
	out := sanitize(g, raw)
	if len(out) < n {
		return nil, fmt.Errorf("write stream: %d valid events, need %d", len(out), n)
	}
	return out[:n], nil
}

// interleaveToggles replaces a share of the churn events with
// follow/unfollow pairs from each toggler's user toward the highest
// in-degree accounts it does not follow, labelled with the toggler's
// topic. Each pair's unfollow comes a few events after its follow, so
// the subscriber's top-k moves and moves back.
func interleaveToggles(g graph.View, raw []dynamic.Update, togglers []readKey, share float64, seed uint64) []dynamic.Update {
	r := rand.New(rand.NewPCG(seed, 0x746f67))
	hubs := make([]graph.NodeID, g.NumNodes())
	for i := range hubs {
		hubs[i] = graph.NodeID(i)
	}
	sort.SliceStable(hubs, func(i, j int) bool { return g.InDegree(hubs[i]) > g.InDegree(hubs[j]) })
	next := make([]int, len(togglers)) // per toggler: next hub rank to try
	out := make([]dynamic.Update, 0, len(raw))
	var pending []dynamic.Update
	for i, up := range raw {
		if len(pending) > 0 && r.Float64() < 0.5 {
			out = append(out, pending[0])
			pending = pending[1:]
			continue
		}
		if r.Float64() >= share {
			out = append(out, up)
			continue
		}
		t := i % len(togglers)
		u := togglers[t].user
		for next[t] < len(hubs) {
			h := hubs[next[t]]
			next[t]++
			if h == u || g.HasEdge(u, h) {
				continue
			}
			e := graph.Edge{Src: u, Dst: h, Label: topics.NewSet(togglers[t].topic)}
			out = append(out, dynamic.Update{Edge: e, Add: true})
			pending = append(pending, dynamic.Update{Edge: e, Add: false})
			break
		}
	}
	return append(out, pending...)
}

// sanitize drops the events whose effect would depend on batching or
// that change nothing: adds of present edges, re-adds of removed edges
// and removals of absent edges.
func sanitize(g graph.View, raw []dynamic.Update) []dynamic.Update {
	live := make(map[graph.EdgeKey]bool, g.NumEdges())
	for _, e := range g.Edges() {
		live[graph.KeyOf(e.Src, e.Dst)] = true
	}
	removed := make(map[graph.EdgeKey]bool)
	out := make([]dynamic.Update, 0, len(raw))
	for _, up := range raw {
		k := graph.KeyOf(up.Edge.Src, up.Edge.Dst)
		switch {
		case up.Edge.Src == up.Edge.Dst:
			continue
		case up.Add && (live[k] || removed[k]):
			continue
		case !up.Add && !live[k]:
			continue
		}
		live[k] = up.Add
		if !up.Add {
			removed[k] = true
		}
		out = append(out, up)
	}
	return out
}

// schedule returns n due offsets spaced evenly at rate per second,
// starting at phase.
func schedule(n int, rate float64, phase time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	gap := float64(time.Second) / rate
	for i := range out {
		out[i] = phase + time.Duration(float64(i)*gap)
	}
	return out
}
