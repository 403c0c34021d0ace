package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    uint64
		want bool
	}{
		{0.99, 999, false},
		{0.99, 1000, true},
		{0.5, 19, false},
		{0.5, 20, true},
		{0.999, 9999, false},
		{0.999, 10000, true},
		{0.5, 0, false},
	} {
		var h hist
		for i := uint64(0); i < c.n; i++ {
			h.add(int64(i))
		}
		p := h.pct(c.q)
		if p.OK != c.want {
			t.Errorf("p%g of %d samples: OK=%v, want %v", c.q*100, c.n, p.OK, c.want)
		}
		if p.N != c.n {
			t.Errorf("p%g of %d samples reports n=%d", c.q*100, c.n, p.N)
		}
	}
}

func TestPercentileAccuracy(t *testing.T) {
	var h hist
	for i := int64(1); i <= 100_000; i++ {
		h.add(i * 1000) // 1 µs .. 100 ms
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100_000 * 1000
		got := h.pct(q).Value
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%g = %.0f, want %.0f within 1%%", q*100, got, want)
		}
	}
}

func TestHistIndexMonotonicAndBounded(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<39; v = v*11/10 + 1 {
		i := histIndex(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d after %d", v, i, prev)
		}
		lo, w := histBounds(i)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("value %d outside its bucket [%g, %g)", v, lo, lo+w)
		}
		prev = i
	}
}
