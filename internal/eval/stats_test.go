package eval

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanMedianPercentile(t *testing.T) {
	t.Parallel()
	xs := []float64{1, 2, 3, 4, 100}
	if Mean(xs) != 22 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 3 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 100 {
		t.Error("percentile extremes wrong")
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("interpolated median = %v", got)
	}
	if Mean(nil) != 0 || Median(nil) != 0 || Variance([]float64{5}) != 0 {
		t.Error("degenerate inputs mishandled")
	}
}

func TestVarianceKnown(t *testing.T) {
	t.Parallel()
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4.571428571, 1e-6) {
		t.Errorf("Variance = %v", got)
	}
}

func TestStudentTCDFAgainstKnownValues(t *testing.T) {
	t.Parallel()
	// Reference values from standard t tables.
	cases := []struct{ t, df, want float64 }{
		{0, 5, 0.5},
		{1.0, 10, 0.8296},
		{2.228, 10, 0.975},
		{-2.228, 10, 0.025},
		{1.96, 1e6, 0.975}, // approaches normal
	}
	for _, c := range cases {
		if got := StudentTCDF(c.t, c.df); !almost(got, c.want, 0.002) {
			t.Errorf("StudentTCDF(%v, %v) = %v, want %v", c.t, c.df, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	t.Parallel()
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Fatal("boundary values wrong")
	}
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !almost(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
}

func TestWelchTDetectsDifference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 60)
	b := make([]float64, 60)
	for i := range a {
		a[i] = 30 + rng.NormFloat64()*8
		b[i] = 45 + rng.NormFloat64()*12
	}
	res := WelchT(a, b)
	if res.P > 0.001 {
		t.Errorf("clear difference not detected: p = %v", res.P)
	}
	if res.T >= 0 {
		t.Errorf("sign wrong: t = %v", res.T)
	}
	// Identical samples: no significance.
	same := WelchT(a, a)
	if same.P < 0.99 {
		t.Errorf("identical samples p = %v", same.P)
	}
}

func TestWelchTNullCalibration(t *testing.T) {
	t.Parallel()
	// Under the null, p-values should be roughly uniform: count p<0.05.
	rng := rand.New(rand.NewSource(2))
	rejections := 0
	trials := 400
	for i := 0; i < trials; i++ {
		a := make([]float64, 30)
		b := make([]float64, 30)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = rng.NormFloat64()
		}
		if WelchT(a, b).P < 0.05 {
			rejections++
		}
	}
	rate := float64(rejections) / float64(trials)
	if rate > 0.09 || rate < 0.01 {
		t.Errorf("null rejection rate = %v, want ~0.05", rate)
	}
}

func TestMannWhitney(t *testing.T) {
	t.Parallel()
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{10, 11, 12, 13, 14, 15, 16, 17}
	res := MannWhitneyU(a, b)
	if res.P > 0.01 {
		t.Errorf("disjoint samples p = %v", res.P)
	}
	// With ties and identical distributions, P should be large.
	c := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	same := MannWhitneyU(c, c)
	if same.P < 0.9 {
		t.Errorf("identical tied samples p = %v", same.P)
	}
	if MannWhitneyU(nil, a).P != 1 {
		t.Error("empty sample should return p=1")
	}
}

func TestPermutationTest(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	a := []float64{1, 2, 3, 2, 1, 2, 3}
	b := []float64{9, 8, 9, 10, 9, 8, 9}
	if p := PermutationTest(a, b, 1000, rng); p > 0.01 {
		t.Errorf("clear difference p = %v", p)
	}
	if p := PermutationTest(a, a, 500, rng); p < 0.5 {
		t.Errorf("identical samples p = %v", p)
	}
}

// Property: mean is bounded by min and max; percentile is monotone in p.
func TestStatsProperties(t *testing.T) {
	t.Parallel()
	check := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		m := Mean(xs)
		if m < lo-1e-9 || m > hi+1e-9 {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 22)
	s := tb.String()
	for _, want := range []string{"demo", "name", "alpha", "1.50", "22", "---"} {
		if !contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if Pct(0.25) != "25%" {
		t.Errorf("Pct = %q", Pct(0.25))
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCohensD(t *testing.T) {
	t.Parallel()
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{3, 4, 5, 6, 7}
	d := CohensD(a, b)
	if !almost(d, -1.2649, 0.001) {
		t.Errorf("CohensD = %v", d)
	}
	if CohensD(a, a) != 0 {
		t.Error("identical samples should have d=0")
	}
	if CohensD([]float64{1}, b) != 0 {
		t.Error("degenerate input should return 0")
	}
	same := []float64{2, 2, 2}
	if CohensD(same, same) != 0 {
		t.Error("zero variance should return 0")
	}
}

func TestHTMLReport(t *testing.T) {
	t.Parallel()
	rep := NewHTMLReport("demo report", 42, 10)
	tb := NewTable("t1", "a", "b")
	tb.AddRow("x", 1.0)
	rep.Sections = append(rep.Sections, HTMLSection{
		Heading: "section one", Note: "a note", Tables: []*Table{tb}, Pre: "trace <line>",
	})
	var buf bytes.Buffer
	if err := rep.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "demo report", "seed 42", "section one", "<th>a</th>", "<td>1.00</td>", "trace &lt;line&gt;"} {
		if !contains(out, want) {
			t.Errorf("html missing %q", want)
		}
	}
}
