package main

import "testing"

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false},   // p75 leaves 9 beyond
		{40, 75, true},   // p75 leaves 10
		{100, 90, true},  // p90 leaves 10, p95 only 5
		{999, 95, true},  // p99 leaves 9
		{1000, 99, true}, // p99 leaves 10
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6})
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 10: 1} {
		if got := d.at(p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}
