package core

import (
	"math"

	"repro/internal/numeric"
)

// phiEvaluator is what the outer Fig. 3 search drives. eval writes the
// rate vector at φ into scratch and returns its total F(φ); total sums
// any rate vector the same way (compensated, in station order, so every
// path totals bit-identically); feasible checks a rate vector against
// ρ_i < 1. The vector may be station-indexed (the dense path) or
// class-indexed (the sparse path) — the search only copies and linearly
// combines it.
//
// floor is the smallest idle marginal cost min_i MC_i(0) over stations
// with headroom, computed by the same costDeriv(0) the inner solve
// checks first: at any φ ≤ floor every station's rate, and so F(φ), is
// exactly zero.
type phiEvaluator struct {
	eval     func(phi float64) float64
	scratch  []float64
	total    func(rates []float64) float64
	feasible func(rates []float64) error
	floor    float64
}

// phiSolution is the outcome of the outer search: the located
// multiplier and the rate vector the caller publishes.
type phiSolution struct {
	Phi   float64
	Rates []float64
	// probes counts F(φ) evaluations (tests pin the outer budget).
	probes int
}

// ITP constants (Oliveira & Takahashi, ACM TOMS 47(1), 2020): the
// truncation δ = κ₁·w^κ₂ with κ₂ = 2 and κ₁ = itpK1/w₀, and n₀ = 1
// spare step over bisection's n_{1/2} in the worst-case budget.
const (
	itpK1 = 0.2
	itpN0 = 1
)

// searchPhi implements the outer loop of the paper's Fig. 3
// ("Calculate T′"). F is non-decreasing in φ because each λ′_i(φ) is.
//
//  1. Bracketing (lines 1–10): grow φ by doubling until F(φ) ≥ λ′. The
//     last probe below λ′ becomes the bracket's lower end with its
//     rates; if the first probe already reaches λ′, the lower end is
//     the point where F is known to be zero.
//  2. Location (lines 11–27): shrink the bracket until
//     ub − lb ≤ ε·φ_hi (up to a few ulps of φ where ITP's budget
//     binds), with φ_hi the bracketing phase's result. The default
//     steps are ITP: the regula-falsi point of the bracket's F values,
//     truncated towards the midpoint by δ and projected to within the
//     radius that keeps the worst case at n_{1/2} + n₀ probes —
//     superlinear on smooth F, never worse than bisection by more than
//     one probe where F jumps. Under opts.PureBisection the steps are
//     the paper's midpoints.
//
// The default cold start is max(outerStart(opts), ev.floor) with the
// floor as lower end; under PureBisection it is the paper's
// outerStart(opts) with lower end 0. Either way F(lower end) = 0 and
// the rates there are all zero.
//
// Unless opts.NoRescale, the rates returned are the segment repair's:
// F can be (numerically) discontinuous at the optimal φ — a large,
// lightly loaded station has an almost flat marginal cost ≈ x̄_i/λ′ over
// a wide rate range, so as φ crosses that plateau its rate, and F,
// jump. Every point of the segment between the bracket ends' rate
// vectors satisfies the KKT conditions; the search picks the one
// meeting conservation under linear interpolation, then removes the
// float dust with an exact projection onto Σλ′_i = λ′ (a factor
// 1 ± O(ε), undone if it would make a station unstable). Both ends'
// rates are cached from the search itself, so the repair costs no extra
// solve. With NoRescale the result is the raw rate vector at Phi.
func searchPhi(ev phiEvaluator, lambda float64, opts Options) (phiSolution, error) {
	var sol phiSolution
	repair := !opts.NoRescale
	eval := func(phi float64) float64 {
		sol.probes++
		return ev.eval(phi)
	}
	keep := func(dst []float64) []float64 {
		if !repair {
			return dst
		}
		if dst == nil {
			dst = make([]float64, len(ev.scratch))
		}
		copy(dst, ev.scratch)
		return dst
	}

	// Invariant: F(lb) = fLo < λ′ ≤ fHi = F(ub), with ratesLo and
	// ratesHi the cached rate vectors at the two ends.
	lb, start := 0.0, outerStart(opts)
	if !opts.PureBisection {
		lb, start = ev.floor, math.Max(start, ev.floor)
	}
	var fLo, fHi float64
	var ratesLo, ratesHi []float64
	if repair {
		ratesLo = make([]float64, len(ev.scratch))
	}
	phiHi, err := numeric.ExpandUpper(func(phi float64) bool {
		f := eval(phi)
		if f >= lambda {
			fHi, ratesHi = f, keep(ratesHi)
			return true
		}
		lb, fLo, ratesLo = phi, f, keep(ratesLo)
		return false
	}, start, 0, 0)
	if err != nil {
		return sol, err
	}

	// ITP's projection keeps the width after step j at most
	// tol·2^(nMax−j−1), so nMax steps suffice; bounding the loop by it
	// keeps the float rounding of projected steps (a few ulps of φ) from
	// costing an extra probe once the budget binds.
	ub, tol := phiHi, opts.epsilon()*phiHi
	w0 := ub - lb
	nMax := int(math.Ceil(math.Log2(w0/tol))) + itpN0
	budget := nMax
	if opts.PureBisection {
		budget = numeric.MaxIterations
	}
	for j := 0; ub-lb > tol && j < budget; j++ {
		w := ub - lb
		mid := lb + w/2
		x := mid
		if !opts.PureBisection {
			yLo, yHi := fLo-lambda, fHi-lambda
			xf := (yHi*lb - yLo*ub) / (yHi - yLo) // interpolate
			sigma := 1.0
			if xf > mid {
				sigma = -1
			}
			xt := mid
			if delta := itpK1 / w0 * w * w; delta <= math.Abs(mid-xf) {
				xt = xf + sigma*delta // truncate towards the midpoint
			}
			r := math.Ldexp(tol/2, nMax-j) - w/2
			if math.Abs(xt-mid) <= r {
				x = xt
			} else {
				x = mid - sigma*r // project into the minmax radius
			}
			if !(x > lb && x < ub) {
				x = mid // interpolation collided with an end at float resolution
			}
		}
		if !(x > lb && x < ub) {
			break // bisection fixed point: no float lies strictly inside
		}
		if f := eval(x); f >= lambda {
			ub, fHi, ratesHi = x, f, keep(ratesHi)
		} else {
			lb, fLo, ratesLo = x, f, keep(ratesLo)
		}
	}
	sol.Phi = lb + (ub-lb)/2
	if !repair {
		eval(sol.Phi)
		sol.Rates = append([]float64(nil), ev.scratch...)
		return sol, nil
	}

	rates := ratesLo
	t := (lambda - fLo) / (fHi - fLo)
	for i := range rates {
		rates[i] += t * (ratesHi[i] - rates[i])
	}
	scale := lambda / ev.total(rates)
	for i := range rates {
		rates[i] *= scale
	}
	if ev.feasible(rates) != nil {
		for i := range rates {
			rates[i] /= scale
		}
	}
	sol.Rates = rates
	return sol, nil
}

// outerStart returns the initial φ of the bracketing phase: the paper's
// cold start, or a fraction of a previous solve's multiplier when the
// caller warm-starts (the failover fast path).
func outerStart(opts Options) float64 {
	if opts.WarmPhi > 0 && !isInfNaN(opts.WarmPhi) {
		return opts.WarmPhi / 16
	}
	return 1e-12
}

func isInfNaN(v float64) bool { return math.IsInf(v, 0) || math.IsNaN(v) }
