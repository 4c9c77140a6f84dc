package core

import (
	"math"

	"repro/internal/model"
	"repro/internal/queueing"
)

// stationSolver caches everything the paper's Find_λ′_i recomputes from
// scratch on every call — the station kernel, service-time constants,
// the (possibly capped) saturation bound — and solves the inner
// marginal-cost equation with a bracketed Newton iteration instead of
// pure bisection. Across the outer φ search the solver also warm-starts
// each solve from the rate found at the previous φ, which is within a
// few Newton steps of the new root once the outer bracket narrows.
//
// The pure-bisection path (FindRateLimited) remains the oracle: the
// Newton iteration maintains a [lo, hi] bracket with the same monotone
// predicate semantics and converges to the same root within the same
// ε·λ′_max tolerance, falling back to bisection outright if it fails to
// contract. Agreement to ≤ 1e-9 is pinned by TestNewtonMatchesBisection
// and FuzzNewtonInnerSolve.
type stationSolver struct {
	kern *queueing.Kernel
	d    queueing.Discipline

	mf      float64 // m_i
	xbar    float64 // x̄_i = r̄/s_i
	special float64 // λ″_i
	rhoS    float64 // ρ″_i
	total   float64 // λ′ (the outer problem's total generic rate)

	maxRate float64 // λ′_max,i under the active utilization cap
	capRate float64 // (1−ε)·maxRate, the stability-guarded ceiling
	tol     float64 // ε·maxRate, the bisection's interval tolerance

	// totalObj switches the marginal cost to the fleet-wide objective of
	// OptimizeTotal, which adds the special-task term ρ″ ∂T″/∂ρ (and
	// divides by Λ = λ′ + λ″ instead of λ′, carried in total).
	totalObj bool

	prev  float64 // previous solve's rate for warm starts; < 0 when unset
	evals int     // costDeriv calls so far (tests pin the inner budget)
}

// newStationSolver mirrors the setup lines of FindRateLimited once, so
// the per-φ solves skip them.
func newStationSolver(s model.Server, rbar, lambdaTotal float64, d queueing.Discipline, eps, rhoCap float64) stationSolver {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	maxRate := s.MaxGenericRate(rbar)
	if rhoCap > 0 && rhoCap < 1 {
		if capped := rhoCap*s.Capacity(rbar) - s.SpecialRate; capped < maxRate {
			maxRate = capped
		}
	}
	ss := stationSolver{
		kern:    queueing.KernelFor(s.Size),
		d:       d,
		mf:      float64(s.Size),
		xbar:    s.ServiceMean(rbar),
		special: s.SpecialRate,
		total:   lambdaTotal,
		maxRate: maxRate,
		prev:    -1,
	}
	ss.rhoS = s.SpecialRate * ss.xbar / ss.mf
	ss.capRate = (1 - eps) * maxRate
	ss.tol = eps * maxRate
	return ss
}

// costDeriv returns the marginal cost (1/λ′)(T′ + ρ′ ∂T′/∂ρ) at generic
// rate l together with its derivative in l. One kernel evaluation
// yields T′, ∂T′/∂ρ and ∂²T′/∂ρ², and the chain rule with
// dρ/dl = dρ′/dl = x̄/m gives
//
//	d(MC)/dl = (x̄/m)(2 ∂T′/∂ρ + ρ′ ∂²T′/∂ρ²) / λ′ > 0
//
// (positive by convexity of T′, which keeps the Newton slope usable).
func (ss *stationSolver) costDeriv(l float64) (mc, dmc float64) {
	ss.evals++
	rho := (l + ss.special) * ss.xbar / ss.mf
	if rho >= 1 {
		return math.Inf(1), math.Inf(1)
	}
	rhoG := l * ss.xbar / ss.mf
	t, dt, d2t := ss.kern.Response(ss.d, rho, ss.rhoS, ss.xbar)
	if ss.totalObj {
		// Fleet-wide objective (OptimizeTotal): add ρ″ ∂T″/∂ρ. Under
		// FCFS special tasks see the same shared queue, ∂T″/∂ρ = ∂T′/∂ρ;
		// under priority W″ = C(ρ)·x̄/(m(1−ρ″)), so its ρ-derivatives are
		// C′ and C″ scaled by x̄/(m(1−ρ″)).
		var dts, ddts float64
		if ss.d == queueing.Priority {
			_, dc, d2c := ss.kern.CDerivs(rho)
			scale := ss.xbar / (ss.mf * (1 - ss.rhoS))
			dts, ddts = dc*scale, d2c*scale
		} else {
			dts, ddts = dt, d2t
		}
		mc = (t + rhoG*dt + ss.rhoS*dts) / ss.total
		dmc = ss.xbar / ss.mf * (2*dt + rhoG*d2t + ss.rhoS*ddts) / ss.total
		return mc, dmc
	}
	mc = (t + rhoG*dt) / ss.total
	dmc = ss.xbar / ss.mf * (2*dt + rhoG*d2t) / ss.total
	return mc, dmc
}

// findRate solves MC(l) = φ for this station: the Newton-accelerated
// version of the paper's Fig. 2. Returns 0 when even an idle station's
// marginal cost exceeds φ, and the capped rate when φ exceeds the
// marginal cost everywhere below the stability bound. Otherwise the
// result is, as in the bisection, the midpoint of a bracket of width at
// most tol: Newton usually converges from one side (from above for a
// convex marginal cost), so once a step moves less than tol/2 a single
// probe on the far side of the root closes the bracket — about 5–7
// kernel evaluations per solve instead of bisecting the rest of it.
func (ss *stationSolver) findRate(phi float64) float64 {
	if ss.maxRate <= 0 {
		return 0 // special tasks (or the cap) leave no headroom
	}
	if mc, _ := ss.costDeriv(0); mc >= phi {
		return 0
	}
	if mc, _ := ss.costDeriv(ss.capRate); mc < phi {
		// Outer loop overshooting φ; the whole feasible range is below.
		return ss.capRate
	}
	// Bracketed Newton on g(l) = MC(l) − φ with g(lo) < 0 ≤ g(hi).
	lo, hi := 0.0, ss.capRate
	x := ss.prev
	if !(x > lo && x < hi) {
		x = lo + (hi-lo)/2
	}
	for i := 0; i < 120; i++ {
		mc, dmc := ss.costDeriv(x)
		g := mc - phi
		if g >= 0 {
			hi = x
		} else {
			lo = x
		}
		if hi-lo <= ss.tol {
			r := lo + (hi-lo)/2
			ss.prev = r
			return r
		}
		xn := math.NaN()
		if dmc > 0 && !math.IsInf(g, 0) {
			xn = x - g/dmc
		}
		if math.Abs(xn-x) < ss.tol/2 {
			// Newton has converged onto one side of the root (x is the
			// bracket end it just set): probe half a tolerance across
			// the root so the bracket closes on the next check. The
			// half keeps the closed width under tol despite rounding.
			if g >= 0 {
				xn = x - ss.tol/2
			} else {
				xn = x + ss.tol/2
			}
		}
		if !(xn > lo && xn < hi) {
			xn = lo + (hi-lo)/2 // safeguard: fall back to a bisection step
		}
		x = xn
	}
	// The iteration failed to contract (pathological inputs); defer to
	// the paper's bisection, the oracle path.
	return ss.bisectFallback(phi)
}

// bisectFallback reruns the solve with the paper's pure-bisection
// primitive over the same bracket and tolerance.
func (ss *stationSolver) bisectFallback(phi float64) float64 {
	lo, hi := 0.0, ss.capRate
	for i := 0; i < 20000 && hi-lo > ss.tol; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi { //bladelint:allow floateq -- bisection fixed point: the midpoint collided with a bound
			break
		}
		if mc, _ := ss.costDeriv(mid); mc >= phi {
			hi = mid
		} else {
			lo = mid
		}
	}
	r := lo + (hi-lo)/2
	ss.prev = r
	return r
}
