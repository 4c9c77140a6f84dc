// Package core implements the paper's primary contribution: the optimal
// distribution of a generic task stream over heterogeneous blade servers
// preloaded with special tasks, minimizing the average response time of
// generic tasks (Li, J. Grid Computing 2013, §3–§4).
//
// The entry point is Optimize, which implements the algorithm of the
// paper's Fig. 3 ("Calculate T′"): an outer search on the Lagrange
// multiplier φ wrapped around the per-server inner solve of Fig. 2
// ("Find_λ′_i"), exposed here as FindRate. By default the outer search
// takes ITP steps from the idle-cost floor and the inner solve is a
// bracketed Newton iteration; Options.PureBisection runs the paper's
// literal nested bisection. Both disciplines (shared FCFS and special
// tasks with non-preemptive priority) are supported through
// queueing.Discipline.
//
// For the single-blade case m_1 = … = m_n = 1 the paper gives closed
// forms (Theorems 1 and 3), implemented in closedform.go; they serve as
// independent oracles for the numeric solver.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
)

// Options configures the optimizer.
type Options struct {
	// Discipline selects FCFS (special tasks without priority, §3) or
	// Priority (special tasks with higher priority, §4).
	Discipline queueing.Discipline
	// Epsilon is the bisection tolerance ε of the paper's algorithms,
	// applied to both the inner search over λ′_i and the outer search
	// over φ. Non-positive means DefaultEpsilon.
	Epsilon float64
	// NoRescale disables the final conservation projection that scales
	// the rates so they sum to exactly λ′ (the paper's algorithm leaves
	// a residual of order ε). Mainly for tests that exercise the raw
	// algorithm.
	NoRescale bool
	// MaxUtilization, when in (0, 1), caps every server's total
	// utilization ρ_i at that value — an operational guard band the
	// paper does not model (its only constraint is ρ_i < 1). Zero
	// means uncapped. The optimum under a binding cap pins capped
	// servers at the bound and equalizes marginal costs among the
	// rest, which is exactly what the clamped inner search produces.
	MaxUtilization float64
	// Parallel runs the per-server inner searches concurrently (one
	// goroutine per server, bounded by GOMAXPROCS). The inner solves
	// at a given φ are independent, so results are bit-identical to
	// the sequential path; worthwhile from a few hundred servers up
	// (see BenchmarkOptimizeN512Parallel).
	Parallel bool
	// WarmPhi, when positive, warm-starts the outer bracketing of the
	// Lagrange multiplier from a previous solve's Phi — the failover
	// fast path: after a failure or recovery the optimal φ moves by a
	// bounded factor, so doubling from WarmPhi/16 brackets it in a
	// handful of F(φ) evaluations. The doubling never starts below the
	// idle-cost floor min_i MC_i(0), under which F(φ) = 0, so it only
	// helps when WarmPhi/16 is above that floor. Zero is the cold start:
	// from the floor by default, and from the paper's 1e-12 under
	// PureBisection.
	WarmPhi float64
	// PureBisection runs the paper's literal Figs. 2–3: the Fig. 2
	// bisection (FindRateLimited) for every inner solve, and midpoint
	// steps from the 1e-12 cold start for the outer search, instead of
	// the bracketed Newton inner solve and the ITP outer steps from the
	// idle-cost floor. Slower by more than an order of magnitude; it is the oracle the
	// default path is verified against (TestNewtonMatchesBisection,
	// TestDefaultMatchesPureBisection) and the faithful transcription
	// for paper-fidelity ablations.
	PureBisection bool
	// Sparse enables the fleet-scale solve path: stations with an
	// identical (size, speed, special-rate) signature are clustered
	// into classes and each class's inner problem is solved once per φ
	// probe, with classes whose idle marginal cost MC(0) is at least φ
	// pruned without any kernel evaluation (their optimal rate is
	// exactly zero — see DESIGN §14). The result is bit-identical to
	// the dense path, pinned by TestSparseMatchesDenseBitIdentical.
	Sparse bool
	// CompactResult, meaningful only with Sparse, skips materializing
	// the n-wide dense Rates/Utilizations/ResponseTimes slices: the
	// allocation is returned only through Result.Sparse, and
	// AvgResponseTime is computed per class. The fleet-scale fast path
	// for callers that only need T′ or the compact allocation.
	CompactResult bool
}

// DefaultEpsilon is the default bisection tolerance. It reproduces the
// paper's seven published decimal digits.
const DefaultEpsilon = 1e-12

func (o Options) epsilon() float64 {
	if o.Epsilon <= 0 {
		return DefaultEpsilon
	}
	return o.Epsilon
}

// Result is an optimal (or candidate) load distribution.
type Result struct {
	// Rates are the generic arrival rates λ′_1..λ′_n.
	Rates []float64
	// Phi is the Lagrange multiplier at the optimum: the common
	// marginal cost ∂T′/∂λ′_i of every server carrying generic load.
	Phi float64
	// AvgResponseTime is the minimized T′ = Σ (λ′_i/λ′) T′_i.
	AvgResponseTime float64
	// Utilizations are ρ_1..ρ_n under the optimal rates.
	Utilizations []float64
	// ResponseTimes are the per-server generic response times T′_i.
	ResponseTimes []float64
	// Discipline echoes the discipline optimized for.
	Discipline queueing.Discipline
	// TotalRate echoes λ′.
	TotalRate float64
	// Sparse is the compact (station, rate) form of the allocation,
	// populated by the sparse solve path (Options.Sparse); nil on the
	// dense path. With Options.CompactResult it is the only allocation
	// representation returned.
	Sparse *SparseRates
	// Classes is the number of distinct (size, speed, special-rate)
	// classes the sparse path clustered the fleet into; 0 on the dense
	// path.
	Classes int

	probes int // F(φ) evaluations of the outer search (tests pin the budget)
}

// Optimize solves the paper's optimal load distribution problem: given
// the group g and the total generic arrival rate lambda, it returns the
// rates λ′_i minimizing the average generic response time T′ subject to
// Σλ′_i = λ′ and ρ_i < 1.
//
// It follows the algorithm in Fig. 3 of the paper: the Lagrange
// multiplier φ is first grown by doubling until the induced total rate
// F(φ) reaches λ′ (lines 1–10), then located in the resulting bracket
// (lines 11–27; ITP steps by default, the paper's bisection under
// Options.PureBisection), after which the per-server rates and T′ are
// evaluated (lines 28–37).
func Optimize(g *model.Group, lambda float64, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !opts.Discipline.Valid() {
		return nil, fmt.Errorf("core: unknown discipline %d", int(opts.Discipline))
	}
	if math.IsNaN(lambda) || lambda <= 0 {
		return nil, fmt.Errorf("core: total generic rate λ′=%g must be positive", lambda)
	}
	if max := g.MaxGenericRate(); lambda >= max {
		return nil, fmt.Errorf("core: λ′=%g at or beyond saturation λ′_max=%g", lambda, max)
	}
	rhoCap := 1.0
	if opts.MaxUtilization != 0 { //bladelint:allow floateq -- zero means the option was not set, an exact default
		if opts.MaxUtilization <= 0 || opts.MaxUtilization >= 1 {
			return nil, fmt.Errorf("core: MaxUtilization %g must be in (0, 1)", opts.MaxUtilization)
		}
		rhoCap = opts.MaxUtilization
		var capTotal numeric.KahanSum
		for _, s := range g.Servers {
			if r := rhoCap*s.Capacity(g.TaskSize) - s.SpecialRate; r > 0 {
				capTotal.Add(r)
			}
		}
		// Require real headroom: the bisection needs the capped system
		// to be able to absorb strictly more than λ′.
		if capTotal.Value() <= lambda*(1+1e-9) {
			return nil, fmt.Errorf("core: λ′=%g leaves no headroom under capped capacity %g at ρ ≤ %g",
				lambda, capTotal.Value(), rhoCap)
		}
	}
	eps := opts.epsilon()

	if opts.Sparse {
		return optimizeSparse(g, lambda, opts, eps, rhoCap)
	}

	// The per-station solvers cache kernels, service-time constants and
	// saturation bounds once for the whole φ search; each holds its
	// previous rate as a Newton warm start for the next φ. The paper's
	// pure bisection stays available behind opts.PureBisection.
	solvers := make([]stationSolver, g.N())
	for i, s := range g.Servers {
		solvers[i] = newStationSolver(s, g.TaskSize, lambda, opts.Discipline, eps, rhoCap)
	}
	solveOne := func(i int, phi float64) float64 {
		if opts.PureBisection {
			return FindRateLimited(g.Servers[i], g.TaskSize, lambda, phi, opts.Discipline, eps, rhoCap)
		}
		return solvers[i].findRate(phi)
	}

	// The scratch rate vector is reused across every φ probe; the outer
	// driver copies it only when it caches a bracket endpoint.
	scratch := make([]float64, g.N())
	ratesAt := func(phi float64) float64 {
		workers := runtime.GOMAXPROCS(0)
		if opts.Parallel && g.N() > 1 && workers > 1 {
			// Per-server solves are independent; fan out over
			// contiguous chunks, then sum sequentially so the result
			// is bit-identical to the sequential path. (Each solver's
			// warm-start state is owned by exactly one chunk, and its
			// evolution depends only on the per-server φ sequence, so
			// parallel and sequential runs stay bit-identical too.)
			if workers > g.N() {
				workers = g.N()
			}
			var wg sync.WaitGroup
			chunk := (g.N() + workers - 1) / workers
			for lo := 0; lo < g.N(); lo += chunk {
				hi := lo + chunk
				if hi > g.N() {
					hi = g.N()
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for i := lo; i < hi; i++ {
						scratch[i] = solveOne(i, phi)
					}
				}(lo, hi)
			}
			wg.Wait()
		} else {
			for i := range g.Servers {
				scratch[i] = solveOne(i, phi)
			}
		}
		return kahanTotal(scratch)
	}

	// Run the outer Fig. 3 search; it also performs the segment repair
	// and the conservation projection.
	sol, err := searchPhi(phiEvaluator{
		eval:     ratesAt,
		scratch:  scratch,
		total:    kahanTotal,
		feasible: g.Feasible,
		floor:    idleFloor(solvers),
	}, lambda, opts)
	if err != nil {
		return nil, fmt.Errorf("core: failed to bracket φ: %w", err)
	}
	rates, phi := sol.Rates, sol.Phi

	res := &Result{
		Rates:           rates,
		Phi:             phi,
		AvgResponseTime: g.AverageResponseTime(opts.Discipline, rates),
		Utilizations:    g.Utilizations(rates),
		ResponseTimes:   g.ResponseTimes(opts.Discipline, rates),
		Discipline:      opts.Discipline,
		TotalRate:       lambda,
		probes:          sol.probes,
	}
	return res, nil
}

// kahanTotal is F for a station-indexed rate vector: the compensated
// sum in station order.
func kahanTotal(rates []float64) float64 {
	var sum numeric.KahanSum
	for _, r := range rates {
		sum.Add(r)
	}
	return sum.Value()
}

// idleFloor returns min_i MC_i(0) over the stations with generic
// headroom: below it every inner solve returns exactly zero.
func idleFloor(solvers []stationSolver) float64 {
	floor := math.Inf(1)
	for i := range solvers {
		if solvers[i].maxRate > 0 {
			mc, _ := solvers[i].costDeriv(0)
			floor = math.Min(floor, mc)
		}
	}
	return floor
}

// FindRate implements the paper's Fig. 2 algorithm Find_λ′_i: the
// generic rate λ′_i at which server s's marginal cost
// (1/λ′)(T′_i + ρ′_i ∂T′_i/∂ρ_i) reaches phi, searched by bisection
// over [0, (1−ε)(m_i/x̄_i − λ″_i)). If even an idle server's marginal
// cost exceeds phi, the server receives no generic load and 0 is
// returned; if the marginal cost never reaches phi below the stability
// cap, the capped rate is returned.
func FindRate(s model.Server, rbar, lambdaTotal, phi float64, d queueing.Discipline, eps float64) float64 {
	return FindRateLimited(s, rbar, lambdaTotal, phi, d, eps, 1)
}

// FindRateLimited is FindRate with an additional utilization ceiling:
// the returned rate never drives the server's total utilization above
// rhoCap (pass 1 for the paper's pure stability constraint).
func FindRateLimited(s model.Server, rbar, lambdaTotal, phi float64, d queueing.Discipline, eps, rhoCap float64) float64 {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	maxRate := s.MaxGenericRate(rbar)
	if rhoCap > 0 && rhoCap < 1 {
		if capped := rhoCap*s.Capacity(rbar) - s.SpecialRate; capped < maxRate {
			maxRate = capped
		}
	}
	if maxRate <= 0 {
		return 0 // special tasks (or the cap) leave no headroom
	}
	pred := func(l float64) bool {
		return s.MarginalCost(d, l, lambdaTotal, rbar) >= phi
	}
	if pred(0) {
		return 0
	}
	capRate := (1 - eps) * maxRate
	if !pred(capRate) {
		// φ exceeds the marginal cost everywhere below the stability
		// bound (only happens while the outer loop overshoots φ).
		return capRate
	}
	ub, err := numeric.ExpandUpper(pred, maxRate/1024, maxRate, 1-eps)
	if err != nil {
		return capRate
	}
	rate, err := numeric.BisectPredicate(pred, 0, ub, eps*maxRate)
	if err != nil {
		return capRate
	}
	return rate
}

// KKTResidual measures how far an allocation is from the optimality
// conditions: for servers with λ′_i > 0 the marginal cost must equal
// the common multiplier (taken as the rate-weighted mean marginal cost
// of loaded servers), and for servers with λ′_i = 0 the marginal cost
// at zero must be at least that multiplier. The returned residual is
// the largest violation, relative to the multiplier. Small residual ⇒
// the allocation satisfies the paper's eq. (1).
func KKTResidual(g *model.Group, d queueing.Discipline, rates []float64) (float64, error) {
	if err := g.Feasible(rates); err != nil {
		return 0, err
	}
	var lambda numeric.KahanSum
	for _, r := range rates {
		lambda.Add(r)
	}
	l := lambda.Value()
	if l == 0 { //bladelint:allow floateq -- exact zero allocation is the error sentinel, never a computed value
		return 0, fmt.Errorf("core: KKT residual undefined for zero allocation")
	}
	// Rate-weighted mean marginal cost of loaded servers ≈ φ.
	var wsum, w numeric.KahanSum
	mcs := make([]float64, len(rates))
	for i, s := range g.Servers {
		mcs[i] = s.MarginalCost(d, rates[i], l, g.TaskSize)
		if rates[i] > 0 {
			wsum.Add(rates[i] * mcs[i])
			w.Add(rates[i])
		}
	}
	phi := wsum.Value() / w.Value()
	var worst float64
	for i, r := range rates {
		var viol float64
		if r > 0 {
			viol = math.Abs(mcs[i]-phi) / phi
		} else if mcs[i] < phi {
			viol = (phi - mcs[i]) / phi
		}
		if viol > worst {
			worst = viol
		}
	}
	return worst, nil
}
