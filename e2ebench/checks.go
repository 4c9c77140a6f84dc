package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/queueing"
)

// The correctness checks are pure functions of what the daemon or the
// pipeline returned and what the benchmark sent, so the tests can feed
// each one a wrong output and see it fail. None runs inside a timed
// region.

// checkCounts requires the daemon's per-station counter to equal the
// client's own tally exactly.
func checkCounts(what string, server, client []int64) error {
	if len(server) != len(client) {
		return fmt.Errorf("%s: daemon reports %d stations, client tallied %d", what, len(server), len(client))
	}
	for i := range server {
		if server[i] != client[i] {
			return fmt.Errorf("%s: station %d: daemon counted %d, client tallied %d", what, i, server[i], client[i])
		}
	}
	return nil
}

// shareSigmas is the per-station tolerance of checkShares in binomial
// standard deviations. With 7 stations the chance that a correct
// picker fails the check is below 1e-5 per run.
const shareSigmas = 5

// checkShares requires each station's share of the routed decisions to
// match the plan's split rates[i]/Σrates within shareSigmas binomial
// standard deviations (plus one decision of slack for tiny shares).
func checkShares(counts []int64, rates []float64) error {
	if len(counts) != len(rates) {
		return fmt.Errorf("%d counts for %d planned rates", len(counts), len(rates))
	}
	var n int64
	var total float64
	for i := range counts {
		n += counts[i]
		total += rates[i]
	}
	if n == 0 || !(total > 0) {
		return fmt.Errorf("nothing routed (%d decisions, planned total %g)", n, total)
	}
	for i := range counts {
		p := rates[i] / total
		want := float64(n) * p
		tol := shareSigmas*math.Sqrt(float64(n)*p*(1-p)) + 1
		if math.Abs(float64(counts[i])-want) > tol {
			return fmt.Errorf("station %d got %d of %d decisions, plan share %.4f expects %.1f ± %.1f",
				i, counts[i], n, p, want, tol)
		}
	}
	return nil
}

// checkIncreasing requires plan versions to strictly increase.
func checkIncreasing(versions []int64) error {
	for i := 1; i < len(versions); i++ {
		if versions[i] <= versions[i-1] {
			return fmt.Errorf("plan version %d followed by %d", versions[i-1], versions[i])
		}
	}
	return nil
}

// checkConstant requires every observed plan version to equal want:
// a dispatch phase at the planned rate must not trigger a re-solve.
func checkConstant(seen map[int64]int64, want int64) error {
	for v, n := range seen {
		if v != want {
			return fmt.Errorf("%d responses carried plan version %d, want only %d", n, v, want)
		}
	}
	return nil
}

// checkRateSum requires the plan's rates to add up to the requested λ′.
func checkRateSum(rates []float64, lambda float64) error {
	var s numeric.KahanSum
	for _, r := range rates {
		s.Add(r)
	}
	if got := s.Value(); math.Abs(got-lambda) > 1e-9*lambda {
		return fmt.Errorf("Σ rates = %.12g, requested λ′ = %.12g", got, lambda)
	}
	return nil
}

// kktTolerance bounds core.KKTResidual of a returned plan.
const kktTolerance = 1e-6

// checkKKT requires the plan's rates to satisfy the optimality
// conditions over the stations that were up when it was solved (a
// down station carries zero rate whatever its marginal cost).
func checkKKT(g *model.Group, up []bool, rates []float64) error {
	if len(rates) != g.N() || (up != nil && len(up) != g.N()) {
		return fmt.Errorf("plan has %d rates and %d up flags for %d stations", len(rates), len(up), g.N())
	}
	sub := &model.Group{TaskSize: g.TaskSize}
	var subRates []float64
	for i, s := range g.Servers {
		if up == nil || up[i] {
			sub.Servers = append(sub.Servers, s)
			subRates = append(subRates, rates[i])
		} else if rates[i] != 0 {
			return fmt.Errorf("down station %d carries rate %g", i, rates[i])
		}
	}
	res, err := core.KKTResidual(sub, queueing.FCFS, subRates)
	if err != nil {
		return err
	}
	if !(res < kktTolerance) {
		return fmt.Errorf("KKT residual %.3g ≥ %g", res, kktTolerance)
	}
	return nil
}

// tTolerance is how closely a regenerated table must reproduce the
// paper's T′.
const tTolerance = 5e-8

func checkT(id string, got, want float64) error {
	if !(math.Abs(got-want) <= tTolerance) {
		return fmt.Errorf("%s: T′ = %.9f, paper %.7f (tolerance %g)", id, got, want, tTolerance)
	}
	return nil
}

// checkCI requires the analytic value to lie in the simulated
// replication confidence interval.
func checkCI(analytic float64, ci metrics.Interval) error {
	if !ci.Contains(analytic) {
		return fmt.Errorf("analytic T′ %.6f outside simulated interval [%.6f, %.6f]", analytic, ci.Lo(), ci.Hi())
	}
	return nil
}

// checkFigure requires every series to be finite, positive and
// non-decreasing in λ′: more generic load never lowers the optimal T′.
func checkFigure(id string, values [][]float64) error {
	if len(values) == 0 {
		return fmt.Errorf("%s: no series", id)
	}
	for s, ys := range values {
		if len(ys) == 0 {
			return fmt.Errorf("%s: series %d is empty", id, s)
		}
		for k, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) || y <= 0 {
				return fmt.Errorf("%s: series %d point %d is %g", id, s, k, y)
			}
			if k > 0 && y < ys[k-1] {
				return fmt.Errorf("%s: series %d falls from %g to %g at point %d", id, s, ys[k-1], y, k)
			}
		}
	}
	return nil
}

// checkZero requires every entry of a per-station counter to be zero.
func checkZero(what string, xs []int64) error {
	for i, x := range xs {
		if x != 0 {
			return fmt.Errorf("%s: station %d has %d", what, i, x)
		}
	}
	return nil
}

// checkZeroTotal requires every sample of a counter family to be zero.
func checkZeroTotal(name string, samples []promSample) error {
	for _, s := range samples {
		if s.name == name && s.value != 0 {
			return fmt.Errorf("%s{%s} = %g", name, s.labels, s.value)
		}
	}
	return nil
}
