package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	l, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope-2) > 1e-12 || math.Abs(l.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", l)
	}
	if math.Abs(l.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", l.R2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var x, y []float64
	for i := 0; i < 1000; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 5-0.003*xi+r.NormFloat64()*0.1)
	}
	l, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope+0.003) > 5e-4 {
		t.Errorf("slope = %v, want ~-0.003", l.Slope)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1, 2}); err != ErrInsufficientData {
		t.Errorf("two points: err = %v", err)
	}
	if _, err := FitLinear([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("zero x variance accepted")
	}
}

func TestBinRate(t *testing.T) {
	xs := []float64{5, 15, 15, 25, 95}
	ok := []bool{true, true, false, false, true}
	bins := BinRate(xs, ok, 10, 0, 100)
	if len(bins) != 10 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[0].Count != 1 || bins[0].Rate != 1 {
		t.Errorf("bin0 = %+v", bins[0])
	}
	if bins[1].Count != 2 || bins[1].Rate != 0.5 {
		t.Errorf("bin1 = %+v", bins[1])
	}
	if bins[9].Count != 1 || bins[9].Rate != 1 {
		t.Errorf("bin9 = %+v", bins[9])
	}
	if bins[5].Count != 0 || bins[5].Rate != 0 {
		t.Errorf("empty bin = %+v", bins[5])
	}
}

func TestBinRateEdges(t *testing.T) {
	// Values at the upper edge land in the last bin; out-of-range dropped.
	bins := BinRate([]float64{100, -1, 99.999}, []bool{true, true, true}, 10, 0, 100)
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 1 {
		t.Errorf("in-range observations = %d, want 1", total)
	}
	if BinRate(nil, nil, 0, 0, 100) != nil {
		t.Error("n=0 should return nil")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Errorf("stddev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestSampleUniform(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	items := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := SampleUniform(r, items, 4)
	if len(got) != 4 {
		t.Fatalf("sample size = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatal("sample with replacement detected")
		}
		seen[v] = true
	}
	if len(SampleUniform(r, items, 99)) != len(items) {
		t.Error("oversized k should return all items")
	}
}

func TestRankMatchedDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// Reference ranks concentrated in the bottom half.
	var reference []int
	for i := 0; i < 200; i++ {
		reference = append(reference, 500_001+r.Intn(500_000))
	}
	type site struct{ rank int }
	var candidates []site
	for i := 1; i <= 1_000_000; i += 37 {
		candidates = append(candidates, site{rank: i})
	}
	got := RankMatched(r, reference, candidates, func(s site) int { return s.rank }, 50, 1_000_000)
	if len(got) != len(reference) {
		t.Fatalf("matched sample = %d, want %d", len(got), len(reference))
	}
	for _, s := range got {
		if s.rank <= 500_000 {
			t.Fatalf("sample rank %d outside the reference distribution's buckets", s.rank)
		}
	}
}

func TestRankMatchedEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	if got := RankMatched(r, nil, []int{1, 2}, func(i int) int { return i }, 10, 100); len(got) != 0 {
		t.Errorf("empty reference gave %v", got)
	}
	if got := RankMatched(r, []int{1}, []int{5}, func(i int) int { return i }, 0, 100); got != nil {
		t.Errorf("n=0 gave %v", got)
	}
}

func TestPropertyBinRateConservation(t *testing.T) {
	// Every in-range observation is counted exactly once.
	f := func(raw []uint16, oks []bool) bool {
		n := len(raw)
		if len(oks) < n {
			n = len(oks)
		}
		xs := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(raw[i]) // always within [0, 65536)
		}
		bins := BinRate(xs, oks[:n], 16, 0, 65536)
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPredictOnLine(t *testing.T) {
	f := func(a, b float64, seed int64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		var x, y []float64
		for i := 0; i < 10; i++ {
			xi := float64(i) + r.Float64()
			x = append(x, xi)
			y = append(y, a+b*xi)
		}
		l, err := FitLinear(x, y)
		if err != nil {
			return false
		}
		return math.Abs(l.Slope-b) < 1e-6*(1+math.Abs(b)) &&
			math.Abs(l.Intercept-a) < 1e-5*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
