package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/topics"
)

// validateAnswer checks one recommendation response on its own: at most
// n results, valid user ids and non-increasing scores.
func validateAnswer(resp *client.RecommendResponse, n, nodes int) string {
	if len(resp.Results) > n {
		return fmt.Sprintf("%d results for n=%d", len(resp.Results), n)
	}
	for i, r := range resp.Results {
		if int(r.User) >= nodes {
			return fmt.Sprintf("result %d names unknown user %d", i, r.User)
		}
		if i > 0 && r.Score > resp.Results[i-1].Score {
			return fmt.Sprintf("score rises at result %d", i)
		}
	}
	return ""
}

// ledger is the update accounting of a run, from the client's side
// (offered, and each offer's outcome) and from the pipeline's.
type ledger struct {
	offered, accepted, rejected, failed int
	// enqueued and applied are the pipeline's counts after the final
	// flush; seen counts the accepted updates found in applied batches.
	enqueued, applied, seen int
}

// check returns the conservation laws that do not hold: every offered
// update has exactly one outcome, and after the flush every accepted
// update was applied exactly once.
func (l ledger) check() []string {
	var out []string
	if l.offered != l.accepted+l.rejected+l.failed {
		out = append(out, fmt.Sprintf("offered %d != accepted %d + rejected %d + failed %d", l.offered, l.accepted, l.rejected, l.failed))
	}
	if l.enqueued != l.accepted {
		out = append(out, fmt.Sprintf("pipeline enqueued %d, client saw %d accepted", l.enqueued, l.accepted))
	}
	if l.applied != l.accepted {
		out = append(out, fmt.Sprintf("applied %d != accepted %d after flush", l.applied, l.accepted))
	}
	if l.seen != l.accepted {
		out = append(out, fmt.Sprintf("%d of %d accepted updates found in applied batches", l.seen, l.accepted))
	}
	return out
}

// isBackpressure reports whether err is the ingest queue's 429.
func isBackpressure(err error) bool {
	var api *client.APIError
	return errors.As(err, &api) && api.Status == http.StatusTooManyRequests
}

// expectedEdges applies the accepted updates, in order, to the base
// edge set: a follow of a present edge unions its label, an unfollow of
// an absent edge changes nothing.
func expectedEdges(base []graph.Edge, ups []dynamic.Update) map[graph.EdgeKey]topics.Set {
	want := make(map[graph.EdgeKey]topics.Set, len(base))
	for _, e := range base {
		want[graph.KeyOf(e.Src, e.Dst)] = e.Label
	}
	for _, up := range ups {
		k := graph.KeyOf(up.Edge.Src, up.Edge.Dst)
		if !up.Add {
			delete(want, k)
			continue
		}
		if lbl, ok := want[k]; ok {
			want[k] = lbl.Union(up.Edge.Label)
		} else {
			want[k] = up.Edge.Label
		}
	}
	return want
}

// diffEdges describes how got differs from want; "" when equal.
func diffEdges(want map[graph.EdgeKey]topics.Set, got []graph.Edge) string {
	missing, wrong := len(want), 0
	extra := 0
	for _, e := range got {
		lbl, ok := want[graph.KeyOf(e.Src, e.Dst)]
		switch {
		case !ok:
			extra++
		case lbl != e.Label:
			wrong++
			missing--
		default:
			missing--
		}
	}
	if missing == 0 && extra == 0 && wrong == 0 {
		return ""
	}
	return fmt.Sprintf("final graph: %d edges missing, %d unexpected, %d with wrong labels", missing, extra, wrong)
}

// checkSeqs returns why a subscriber's event sequence is not the
// contiguous 1, 2, 3, ... it must be; "" when it is.
func checkSeqs(evs []client.Event) string {
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			return fmt.Sprintf("event %d has seq %d", i+1, ev.Seq)
		}
	}
	return ""
}

// sameRanking compares a pushed or served top-k with a reference by
// user and score; users may swap only where their scores tie.
func sameRanking(got, want []rankEntry) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, reference has %d", len(got), len(want))
	}
	for i := range got {
		tie := math.Abs(got[i].score-want[i].score) <= 1e-9*math.Max(1, math.Abs(want[i].score))
		if !tie || (got[i].user != want[i].user && !tieAt(want, i)) {
			return fmt.Sprintf("rank %d: user %d score %g, reference user %d score %g",
				i, got[i].user, got[i].score, want[i].user, want[i].score)
		}
	}
	return ""
}

// sameUsers compares a pushed top-k with a served one by users in rank
// order. Scores are not compared: the hub suppresses events whose
// top-k only drifted in score, so a pushed snapshot's scores may be
// older than its ranking.
func sameUsers(pushed []client.Entry, served []client.Recommendation) string {
	if len(pushed) != len(served) {
		return fmt.Sprintf("%d pushed results, %d served", len(pushed), len(served))
	}
	for i := range pushed {
		if pushed[i].User != served[i].User {
			return fmt.Sprintf("rank %d: pushed user %d, served user %d", i, pushed[i].User, served[i].User)
		}
	}
	return ""
}

type rankEntry struct {
	user  uint32
	score float64
}

// tieAt reports whether rank i shares its score with a neighbour.
func tieAt(r []rankEntry, i int) bool {
	eq := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	return (i > 0 && eq(r[i-1].score, r[i].score)) || (i+1 < len(r) && eq(r[i+1].score, r[i].score))
}

func fromResponse(resp *client.RecommendResponse) []rankEntry {
	out := make([]rankEntry, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = rankEntry{r.User, r.Score}
	}
	return out
}

// sampleKeys is how many of the hottest read keys are compared against
// a direct Manager.Recommend at quiescence.
const sampleKeys = 20

// checkAll runs the output checks at quiescence and records every one
// that does not hold in res.failures. tailed are the subscriptions whose
// event streams the pass read; pushMu guards res.pushes.
func (res *passResult) checkAll(ctx context.Context, d *deployment, c *client.Client, tailed []*client.Subscription, pushMu *sync.Mutex) {
	fail := func(format string, args ...any) { res.failures = append(res.failures, fmt.Sprintf(format, args...)) }

	// Zero lost updates.
	st := d.pipe.Stats()
	l := ledger{offered: len(res.writes), enqueued: int(st.Enqueued), applied: int(st.Applied)}
	var accepted []dynamic.Update
	acceptedAt := make(map[int64]bool)
	for _, w := range res.writes {
		switch {
		case w.err == nil:
			l.accepted++
			accepted = append(accepted, w.up)
			acceptedAt[w.up.At] = true
		case isBackpressure(w.err):
			l.rejected++
		default:
			l.failed++
		}
	}
	seen := make(map[int64]int)
	for _, a := range res.applies {
		if a.err != nil {
			fail("apply failed: %v", a.err)
		}
		for _, at := range a.ats {
			seen[at]++
		}
	}
	for at := range acceptedAt {
		if seen[at] == 1 {
			l.seen++
		}
	}
	for _, msg := range l.check() {
		fail("lost updates: %s", msg)
	}
	if st.Err != nil {
		fail("ingest pipeline poisoned: %v", st.Err)
	}

	// Final graph.
	if msg := diffEdges(expectedEdges(d.base.Edges(), accepted), d.mgr.Graph().Edges()); msg != "" {
		fail("%s", msg)
	}

	// Read answers: each response well formed, and the hottest keys
	// served equal to a direct landmark query.
	bad := 0
	for _, r := range res.reads {
		if r.bad != "" {
			if bad == 0 {
				fail("malformed answer for %v: %s", r.key, r.bad)
			}
			bad++
		}
	}
	if bad > 1 {
		fail("%d malformed answers in total", bad)
	}
	vocab := d.base.Vocabulary()
	for _, k := range res.keys.keys[:sampleKeys] {
		resp, err := c.Recommend(ctx, client.RecommendRequest{User: int(k.user), Topic: vocab.Name(k.topic), N: resultN, Method: "landmark"})
		if err != nil {
			fail("sample read %v: %v", k, err)
			continue
		}
		direct, err := d.mgr.Recommend(k.user, k.topic, resultN)
		if err != nil {
			fail("direct recommend %v: %v", k, err)
			continue
		}
		want := make([]rankEntry, len(direct))
		for j, s := range direct {
			want[j] = rankEntry{uint32(s.Node), s.Score}
		}
		if msg := sameRanking(fromResponse(resp), want); msg != "" {
			fail("read %v differs from Manager.Recommend: %s", k, msg)
		}
	}

	// Zero lost deltas: contiguous sequences, no consumer dropped, and
	// each tailed subscriber's last pushed top-k equals a fresh GET.
	if dropped := d.reg.Counter("subscribe_dropped_slow_consumers_total", "").Value(); dropped > 0 {
		fail("lost deltas: %d slow consumers dropped", dropped)
	}
	for i, s := range tailed {
		var msg string
		// The last frame may still be in flight on the stream.
		for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(50 * time.Millisecond) {
			pushMu.Lock()
			evs := res.eventsOf(i)
			pushMu.Unlock()
			if msg = checkSeqs(evs); msg != "" {
				break
			}
			fresh, err := c.Recommend(ctx, client.RecommendRequest{User: s.User, Topic: s.Topic, N: s.N, Method: s.Method})
			if err != nil {
				msg = err.Error()
				break
			}
			if msg = sameUsers(evs[len(evs)-1].Top, fresh.Results); msg == "" || time.Now().After(deadline) {
				break
			}
		}
		if msg != "" {
			fail("lost deltas on %s: %s", s.ID, msg)
		}
	}
}

// eventsOf returns subscriber i's events in arrival order.
func (res *passResult) eventsOf(i int) []client.Event {
	var out []client.Event
	for _, p := range res.pushes {
		if p.sub == i {
			out = append(out, p.ev)
		}
	}
	return out
}
