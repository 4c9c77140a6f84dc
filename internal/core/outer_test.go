package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/queueing"
)

// paperBenchFleet is the clustered fleet of the repository's fleet-scale
// benchmarks (benchFleet in the root package): 56 (size, speed) classes
// at 30% special preload.
func paperBenchFleet(t *testing.T, n int) *model.Group {
	t.Helper()
	sizes := make([]int, n)
	speeds := make([]float64, n)
	for i := range sizes {
		sizes[i] = 2 + 2*(i%8)
		speeds[i] = 1.7 - 0.1*float64(i%7)
	}
	g, err := model.PaperGroup(sizes, speeds, 1.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOuterProbeBudget pins the outer search's cost on the workloads
// every plan comes from: the paper's Tables 1–2 and the 10k-station
// fleet, cold and warm-started from the cold solve's multiplier. Each
// Optimize may make at most 20 F(φ) probes; bisection from the paper's
// 1e-12 cold start made 46–78.
func TestOuterProbeBudget(t *testing.T) {
	const budget = 20
	li := model.LiExample1Group()
	fleet := paperBenchFleet(t, 10000)
	cases := []struct {
		name string
		g    *model.Group
		opts Options
	}{
		{"table1", li, Options{Discipline: queueing.FCFS}},
		{"table2", li, Options{Discipline: queueing.Priority}},
		{"table1/sparse", li, Options{Discipline: queueing.FCFS, Sparse: true}},
		{"table2/sparse", li, Options{Discipline: queueing.Priority, Sparse: true}},
		{"n10k/fcfs", fleet, Options{Discipline: queueing.FCFS, Sparse: true, CompactResult: true}},
		{"n10k/priority", fleet, Options{Discipline: queueing.Priority, Sparse: true, CompactResult: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lambda := 0.5 * c.g.MaxGenericRate()
			cold, err := Optimize(c.g, lambda, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			warmOpts := c.opts
			warmOpts.WarmPhi = cold.Phi
			warm, err := Optimize(c.g, lambda, warmOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				start string
				res   *Result
			}{{"cold", cold}, {"warm", warm}} {
				if r.res.probes > budget {
					t.Errorf("%s start: %d F(φ) probes, budget %d", r.start, r.res.probes, budget)
				}
			}
		})
	}
}

// TestITPBracketBudget checks ITP's worst-case guarantee from outside
// searchPhi: on seeded random fleets — many of them with a numerically
// discontinuous F, where interpolation cannot help — the location phase
// after doubling never takes more than n_{1/2} + 1 probes, n_{1/2} being
// the bisection count for the bracket the doubling left.
func TestITPBracketBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		g := randomFleet(rng, 100+rng.Intn(400))
		opts := Options{Discipline: queueing.Discipline(trial % 2), Sparse: true}
		rhoCap := 1.0
		if trial%3 == 0 {
			rhoCap = 0.7 + 0.25*rng.Float64()
			opts.MaxUtilization = rhoCap
		}
		lambda := (0.02 + 0.95*rng.Float64()) * g.MaxGenericRate()
		if _, err := Optimize(g, lambda, opts); err != nil {
			continue // the cap leaves no headroom for this λ′
		}
		ev := newSparseFleet(g, lambda, opts, opts.epsilon(), rhoCap).evaluator()
		var phis, fs []float64
		inner := ev.eval
		ev.eval = func(phi float64) float64 {
			f := inner(phi)
			phis, fs = append(phis, phi), append(fs, f)
			return f
		}
		sol, err := searchPhi(ev, lambda, opts)
		if err != nil {
			t.Fatal(err)
		}
		k := 0 // index of the doubling phase's last probe, the first F ≥ λ′
		for fs[k] < lambda {
			k++
		}
		lower := ev.floor
		if k > 0 {
			lower = phis[k-1]
		}
		nHalf := int(math.Ceil(math.Log2((phis[k] - lower) / (opts.epsilon() * phis[k]))))
		if after := sol.probes - (k + 1); after > nHalf+1 {
			t.Errorf("trial %d (d=%v cap=%g λ′/λ′_max=%.3f): %d probes after doubling, n_1/2+1 = %d",
				trial, opts.Discipline, opts.MaxUtilization, lambda/g.MaxGenericRate(), after, nHalf+1)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d of 120 random instances were solvable", checked)
	}
}

// TestDefaultMatchesPureBisection checks the default solve (Newton
// inner, ITP outer, idle-cost floor) against the paper's literal
// nested bisection, Options.PureBisection: rates to 1e-9 relative and
// T′ to 1e-12, on the paper's example at Tables 1–2 and on a clustered
// fleet, capped and uncapped, dense and sparse.
func TestDefaultMatchesPureBisection(t *testing.T) {
	groups := []struct {
		name string
		g    *model.Group
	}{{"liExample1", model.LiExample1Group()}, {"n512", clusteredFleet(512, 24)}}
	for _, gc := range groups {
		for _, d := range []queueing.Discipline{queueing.FCFS, queueing.Priority} {
			for _, cap := range []float64{0, 0.9} {
				for _, sparse := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%v/cap=%g/sparse=%v", gc.name, d, cap, sparse), func(t *testing.T) {
						lambda := 0.5 * gc.g.MaxGenericRate()
						opts := Options{Discipline: d, MaxUtilization: cap, Sparse: sparse}
						got, err := Optimize(gc.g, lambda, opts)
						if err != nil {
							t.Fatal(err)
						}
						opts.PureBisection = true
						want, err := Optimize(gc.g, lambda, opts)
						if err != nil {
							t.Fatal(err)
						}
						if diff := math.Abs(got.AvgResponseTime - want.AvgResponseTime); diff > 1e-12 {
							t.Errorf("T′ = %.17g, oracle %.17g (diff %g)", got.AvgResponseTime, want.AvgResponseTime, diff)
						}
						for i, w := range want.Rates {
							if diff := math.Abs(got.Rates[i] - w); diff > 1e-9*math.Abs(w) {
								t.Errorf("λ′_%d = %.17g, oracle %.17g (relative diff %g)", i, got.Rates[i], w, diff/math.Abs(w))
							}
						}
					})
				}
			}
		}
	}
}
