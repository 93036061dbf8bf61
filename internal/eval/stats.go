// Package eval implements the paper's §3 evaluation machinery: summary
// statistics and significance tests over TTM samples, the randomized A/B
// harness comparing helper-assisted and helper-free incident handling,
// mistake-overhead accounting, and cost reporting.
package eval

import (
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Percentile returns the p-th percentile (0..100) by linear
// interpolation; it copies and sorts the input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// lgamma wraps math.Lgamma discarding the sign (arguments here are
// always positive).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betacf evaluates the continued fraction for the incomplete beta
// function (Numerical Recipes style).
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// RegIncBeta is the regularized incomplete beta function I_x(a, b).
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// StudentTCDF returns P(T <= t) for Student's t with df degrees of
// freedom.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TTestResult is the outcome of a two-sample test.
type TTestResult struct {
	T float64 // test statistic
	P float64 // two-sided p-value
}

// WelchT runs Welch's unequal-variance t-test on two samples and returns
// the two-sided p-value. Degenerate inputs (n<2 or zero variance in
// both) return P=1.
func WelchT(a, b []float64) TTestResult {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		return TTestResult{P: 1}
	}
	va, vb := Variance(a), Variance(b)
	se2 := va/na + vb/nb
	if se2 == 0 {
		return TTestResult{P: 1}
	}
	t := (Mean(a) - Mean(b)) / math.Sqrt(se2)
	df := se2 * se2 / ((va*va)/(na*na*(na-1)) + (vb*vb)/(nb*nb*(nb-1)))
	p := 2 * (1 - StudentTCDF(math.Abs(t), df))
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, P: p}
}

// MannWhitneyU runs the two-sided Mann-Whitney U test using the normal
// approximation with tie correction. Suitable for the heavy-tailed TTM
// distributions §3 anticipates.
func MannWhitneyU(a, b []float64) TTestResult {
	na, nb := float64(len(a)), float64(len(b))
	if na == 0 || nb == 0 {
		return TTestResult{P: 1}
	}
	type obs struct {
		v    float64
		from int
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, x := range a {
		all = append(all, obs{x, 0})
	}
	for _, x := range b {
		all = append(all, obs{x, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks, accumulating tie correction.
	ranks := make([]float64, len(all))
	var tieSum float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}
	var ra float64
	for i, o := range all {
		if o.from == 0 {
			ra += ranks[i]
		}
	}
	u := ra - na*(na+1)/2
	mu := na * nb / 2
	n := na + nb
	sigma2 := na * nb / 12 * ((n + 1) - tieSum/(n*(n-1)))
	if sigma2 <= 0 {
		return TTestResult{P: 1}
	}
	z := (u - mu) / math.Sqrt(sigma2)
	p := 2 * (1 - normalCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return TTestResult{T: z, P: p}
}

func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// PermutationTest returns the two-sided p-value for the difference of
// means between a and b under random relabeling.
func PermutationTest(a, b []float64, iters int, rng *rand.Rand) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	if iters <= 0 {
		iters = 2000
	}
	obs := math.Abs(Mean(a) - Mean(b))
	pool := append(append([]float64(nil), a...), b...)
	count := 0
	for i := 0; i < iters; i++ {
		rng.Shuffle(len(pool), func(x, y int) { pool[x], pool[y] = pool[y], pool[x] })
		d := math.Abs(Mean(pool[:len(a)]) - Mean(pool[len(a):]))
		if d >= obs-1e-12 {
			count++
		}
	}
	return float64(count+1) / float64(iters+1)
}

// CohensD returns the standardized mean difference between two samples
// (pooled standard deviation). Magnitude conventions: 0.2 small, 0.5
// medium, 0.8 large. Returns 0 when the pooled variance is zero.
func CohensD(a, b []float64) float64 {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		return 0
	}
	va, vb := Variance(a), Variance(b)
	pooled := ((na-1)*va + (nb-1)*vb) / (na + nb - 2)
	if pooled <= 0 {
		return 0
	}
	return (Mean(a) - Mean(b)) / math.Sqrt(pooled)
}
