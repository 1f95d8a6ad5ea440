package main

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/topics"
)

func TestLedgerConservation(t *testing.T) {
	ok := ledger{offered: 10, accepted: 7, rejected: 2, failed: 1, enqueued: 7, applied: 7, seen: 7}
	if msgs := ok.check(); len(msgs) != 0 {
		t.Fatalf("balanced ledger failed: %v", msgs)
	}
	for name, c := range map[string]struct {
		l    ledger
		want string
	}{
		"lost offer":       {ledger{offered: 11, accepted: 7, rejected: 2, failed: 1, enqueued: 7, applied: 7, seen: 7}, "offered 11"},
		"unapplied":        {ledger{offered: 10, accepted: 7, rejected: 2, failed: 1, enqueued: 7, applied: 6, seen: 6}, "applied 6"},
		"phantom enqueue":  {ledger{offered: 10, accepted: 7, rejected: 2, failed: 1, enqueued: 8, applied: 7, seen: 7}, "enqueued 8"},
		"applied twice":    {ledger{offered: 10, accepted: 7, rejected: 2, failed: 1, enqueued: 7, applied: 7, seen: 6}, "6 of 7"},
		"rejected as lost": {ledger{offered: 10, accepted: 7, rejected: 1, failed: 1, enqueued: 7, applied: 7, seen: 7}, "offered 10"},
	} {
		msgs := c.l.check()
		if len(msgs) == 0 || !strings.Contains(strings.Join(msgs, ";"), c.want) {
			t.Errorf("%s: got %v, want a message with %q", name, msgs, c.want)
		}
	}
}

func TestExpectedEdges(t *testing.T) {
	a, b := topics.NewSet(1), topics.NewSet(2)
	base := []graph.Edge{{Src: 0, Dst: 1, Label: a}, {Src: 1, Dst: 2, Label: a}}
	ups := []dynamic.Update{
		{Edge: graph.Edge{Src: 0, Dst: 1, Label: b}, Add: true}, // union
		{Edge: graph.Edge{Src: 1, Dst: 2}},                      // remove
		{Edge: graph.Edge{Src: 2, Dst: 0, Label: b}, Add: true}, // new
		{Edge: graph.Edge{Src: 3, Dst: 0}},                      // absent: no-op
	}
	want := expectedEdges(base, ups)
	got := []graph.Edge{{Src: 0, Dst: 1, Label: a | b}, {Src: 2, Dst: 0, Label: b}}
	if msg := diffEdges(want, got); msg != "" {
		t.Fatal(msg)
	}
	if msg := diffEdges(want, got[:1]); !strings.Contains(msg, "1 edges missing") {
		t.Errorf("missing edge: %q", msg)
	}
	if msg := diffEdges(want, append(got, graph.Edge{Src: 1, Dst: 2, Label: a})); !strings.Contains(msg, "1 unexpected") {
		t.Errorf("extra edge: %q", msg)
	}
	got[0].Label = a
	if msg := diffEdges(want, got); !strings.Contains(msg, "1 with wrong labels") {
		t.Errorf("wrong label: %q", msg)
	}
}

func TestDeltaAndAnswerChecks(t *testing.T) {
	evs := []client.Event{{Seq: 1}, {Seq: 2}, {Seq: 3}}
	if msg := checkSeqs(evs); msg != "" {
		t.Error(msg)
	}
	if msg := checkSeqs([]client.Event{{Seq: 1}, {Seq: 3}}); msg == "" {
		t.Error("gap not reported")
	}
	resp := &client.RecommendResponse{Results: []client.Recommendation{{User: 3, Score: 2}, {User: 1, Score: 1}}}
	if msg := validateAnswer(resp, 2, 10); msg != "" {
		t.Error(msg)
	}
	for _, bad := range []struct {
		resp     *client.RecommendResponse
		n, nodes int
	}{
		{resp, 1, 10}, // too many
		{resp, 2, 3},  // unknown user 3
		{&client.RecommendResponse{Results: []client.Recommendation{{User: 1, Score: 1}, {User: 2, Score: 2}}}, 2, 10},
	} {
		if validateAnswer(bad.resp, bad.n, bad.nodes) == "" {
			t.Errorf("accepted %+v with n=%d nodes=%d", bad.resp.Results, bad.n, bad.nodes)
		}
	}
	ref := []rankEntry{{1, 3}, {2, 2}, {3, 2}}
	if msg := sameRanking([]rankEntry{{1, 3}, {3, 2}, {2, 2}}, ref); msg != "" {
		t.Errorf("tie swap rejected: %s", msg)
	}
	if msg := sameRanking([]rankEntry{{2, 3}, {1, 2}, {3, 2}}, ref); msg == "" {
		t.Error("swap across distinct scores accepted")
	}
}
