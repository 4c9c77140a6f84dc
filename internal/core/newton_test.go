package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/queueing"
)

// TestNewtonMatchesBisection is the property test behind the Newton
// inner solver: on randomized heterogeneous groups, under both
// disciplines, with and without a utilization cap, the accelerated
// Optimize agrees with the paper's pure-bisection path (the oracle,
// Options.PureBisection) to ≤ 1e-9 on every rate and on T′.
func TestNewtonMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	const tol = 1e-9
	for trial := 0; trial < 40; trial++ {
		g := randomGroup(rng)
		d := queueing.FCFS
		if trial%2 == 1 {
			d = queueing.Priority
		}
		cap := 0.0
		if trial%3 == 0 {
			cap = 0.6 + 0.35*rng.Float64()
		}
		lambda := (0.05 + 0.9*rng.Float64()) * g.MaxGenericRate()
		newtonOpts := Options{Discipline: d, MaxUtilization: cap}
		oracleOpts := Options{Discipline: d, MaxUtilization: cap, PureBisection: true}
		fast, errFast := Optimize(g, lambda, newtonOpts)
		slow, errSlow := Optimize(g, lambda, oracleOpts)
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("trial %d: error disagreement: newton=%v oracle=%v", trial, errFast, errSlow)
		}
		if errFast != nil {
			continue // both reject (e.g. cap leaves no headroom): agreement holds
		}
		scale := math.Max(1, lambda)
		if diff := math.Abs(fast.AvgResponseTime - slow.AvgResponseTime); diff > tol*math.Max(1, slow.AvgResponseTime) {
			t.Errorf("trial %d (d=%v cap=%g λ′=%g): T′ newton=%.15g oracle=%.15g diff=%g", trial, d, cap, lambda, fast.AvgResponseTime, slow.AvgResponseTime, diff)
		}
		for i := range fast.Rates {
			if diff := math.Abs(fast.Rates[i] - slow.Rates[i]); diff > tol*scale {
				t.Errorf("trial %d (d=%v cap=%g λ′=%g): rate[%d] newton=%.15g oracle=%.15g diff=%g", trial, d, cap, lambda, i, fast.Rates[i], slow.Rates[i], diff)
			}
		}
	}
}

// TestNewtonMatchesBisectionTotal is the same property for the
// fleet-wide objective of OptimizeTotal, whose marginal cost adds the
// special-task term ρ″ ∂T″/∂ρ.
func TestNewtonMatchesBisectionTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	const tol = 1e-9
	for trial := 0; trial < 20; trial++ {
		g := randomGroup(rng)
		d := queueing.FCFS
		if trial%2 == 1 {
			d = queueing.Priority
		}
		lambda := (0.1 + 0.8*rng.Float64()) * g.MaxGenericRate()
		fast, errFast := OptimizeTotal(g, lambda, Options{Discipline: d})
		slow, errSlow := OptimizeTotal(g, lambda, Options{Discipline: d, PureBisection: true})
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("trial %d: error disagreement: newton=%v oracle=%v", trial, errFast, errSlow)
		}
		if errFast != nil {
			continue
		}
		scale := math.Max(1, lambda)
		if diff := math.Abs(fast.AvgAllTasks - slow.AvgAllTasks); diff > tol*math.Max(1, slow.AvgAllTasks) {
			t.Errorf("trial %d (d=%v λ′=%g): T newton=%.15g oracle=%.15g diff=%g", trial, d, lambda, fast.AvgAllTasks, slow.AvgAllTasks, diff)
		}
		for i := range fast.Rates {
			if diff := math.Abs(fast.Rates[i] - slow.Rates[i]); diff > tol*scale {
				t.Errorf("trial %d (d=%v λ′=%g): rate[%d] newton=%.15g oracle=%.15g diff=%g", trial, d, lambda, i, fast.Rates[i], slow.Rates[i], diff)
			}
		}
	}
}

// TestNewtonWarmStartConsistency re-solves the same problem through a
// solver whose warm-start state has been seeded by a different φ and
// checks the answer is within tolerance of a cold solve: prev is an
// accelerator, never part of the answer.
func TestNewtonWarmStartConsistency(t *testing.T) {
	s := model.Server{Size: 6, Speed: 2, SpecialRate: 1.5}
	ss := newStationSolver(s, 1, 40, queueing.Priority, 0, 1)
	cold := newStationSolver(s, 1, 40, queueing.Priority, 0, 1)
	// Seed ss.prev by solving at a sequence of unrelated multipliers.
	for _, phi := range []float64{0.9, 0.02, 0.4} {
		ss.findRate(phi)
	}
	for _, phi := range []float64{0.05, 0.1, 0.3, 0.7} {
		warm := ss.findRate(phi)
		want := cold.bisectFallback(phi)
		if diff := math.Abs(warm - want); diff > 2*cold.tol+1e-9 {
			t.Errorf("φ=%g: warm-started rate %.15g vs bisection %.15g (diff %g)", phi, warm, want, diff)
		}
	}
}

// TestNewtonClosesOneSidedBracket is the regression test for the inner
// solve's exit. From a cold start at the bracket midpoint, the paper's
// smallest station (m = 2) lies far above its root at the Table 1/2
// multiplier, and its marginal cost is convex, so every Newton iterate
// stays above the root and only the upper bracket end ever moves. Newton converges in a handful of steps; the solve must
// then close the bracket with one probe below the root instead of
// bisecting the rest of it down to tol (about 45 kernel evaluations).
func TestNewtonClosesOneSidedBracket(t *testing.T) {
	const budget = 12 // includes the MC(0) and MC(cap) checks
	g := model.LiExample1Group()
	s := g.Servers[0]
	lambda := 0.5 * g.MaxGenericRate()
	for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
		res, err := Optimize(g, lambda, Options{Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		ss := newStationSolver(s, g.TaskSize, lambda, d, 0, 1)
		if root := res.Rates[0]; !(ss.capRate/2 > 1.5*root) {
			t.Fatalf("%v: root %g is not well below the cold start %g", d, root, ss.capRate/2)
		}
		got := ss.findRate(res.Phi)
		if ss.evals > budget {
			t.Errorf("%v: %d kernel evaluations, budget %d", d, ss.evals, budget)
		}
		want := FindRateLimited(s, g.TaskSize, lambda, res.Phi, d, 0, 1)
		if diff := math.Abs(got - want); diff > 2*ss.tol {
			t.Errorf("%v: rate %.15g, bisection %.15g (diff %g, tol %g)", d, got, want, diff, ss.tol)
		}
	}
}

// FuzzNewtonInnerSolve fuzzes the single-station inner solve: whatever
// (m, speed, special load, φ) the fuzzer invents, the Newton findRate
// and the paper's Fig. 2 bisection (FindRateLimited) must land within
// twice the shared interval tolerance of each other.
func FuzzNewtonInnerSolve(f *testing.F) {
	f.Add(4, 1.5, 0.3, 0.25, false)
	f.Add(1, 0.7, 0.0, 1.5, true)
	f.Add(16, 3.0, 0.8, 0.04, false)
	f.Add(7, 2.0, 0.0, 0.5, true)
	f.Fuzz(func(t *testing.T, m int, speed, specialFrac, phi float64, priority bool) {
		if m < 1 || m > 256 {
			t.Skip()
		}
		if !(speed > 0.01 && speed < 100) || !(phi > 1e-9 && phi < 1e9) {
			t.Skip()
		}
		if math.IsNaN(specialFrac) || specialFrac < 0 || specialFrac > 0.9 {
			t.Skip()
		}
		const rbar = 1.0
		s := model.Server{Size: m, Speed: speed}
		s.SpecialRate = specialFrac * s.Capacity(rbar)
		d := queueing.FCFS
		if priority {
			d = queueing.Priority
		}
		const lambdaTotal = 100.0
		ss := newStationSolver(s, rbar, lambdaTotal, d, 0, 1)
		got := ss.findRate(phi)
		want := FindRateLimited(s, rbar, lambdaTotal, phi, d, 0, 1)
		if diff := math.Abs(got - want); diff > 2*ss.tol+1e-9 {
			t.Errorf("m=%d speed=%g λ″=%g φ=%g d=%v: newton=%.15g bisection=%.15g diff=%g tol=%g",
				m, speed, s.SpecialRate, phi, d, got, want, diff, ss.tol)
		}
	})
}
