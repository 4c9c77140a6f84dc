package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/queueing"
)

func TestScheduleFollowsSeed(t *testing.T) {
	a := poissonStreams(7, "paper-open", 1000, 2, 2*time.Second)
	b := poissonStreams(7, "paper-open", 1000, 2, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	c := poissonStreams(8, "paper-open", 1000, 2, 2*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("the two connections share one sub-stream")
	}
	if x, y := seededRand(7, "fleet-replan").Uint64(), seededRand(7, "fleet-replan").Uint64(); x != y {
		t.Fatal("seededRand is not reproducible")
	}
	if seededRand(7, "fleet-replan").Uint64() == seededRand(8, "fleet-replan").Uint64() {
		t.Fatal("seededRand ignores the seed")
	}
}

func TestScheduleIsPoissonAtRate(t *testing.T) {
	const rate, span = 2000.0, 10 * time.Second
	var n int
	for _, s := range poissonStreams(3, "x", rate, 2, span) {
		for i, d := range s {
			if d < 0 || d >= span || (i > 0 && d < s[i-1]) {
				t.Fatalf("offset %v out of order or range", d)
			}
		}
		n += len(s)
	}
	want := rate * span.Seconds()
	if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
		t.Fatalf("%d arrivals in %v at %g/s, want about %g", n, span, rate, want)
	}
}

func TestQuantilesCarryCounts(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: quantileOf must not rely on order or reorder xs
	}
	q := quantileOf(xs, 0.99)
	if q.N != 1000 || q.Value != 990 || q.Beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 with n=1000 and 10 beyond", q)
	}
	if xs[0] != 1000 {
		t.Fatal("quantileOf reordered its input")
	}
	if s := q.String(); !strings.Contains(s, "n=1000") || !strings.Contains(s, "10 beyond") {
		t.Fatalf("String() = %q does not report the counts", s)
	}
	if q := quantileOf(nil, 0.5); q.N != 0 || !math.IsNaN(q.Value) {
		t.Fatalf("empty sample gave %+v", q)
	}

	// One disturbed window out of twelve does not move the windowed
	// figure; the count is the whole sample's.
	ys := make([]float64, 1200)
	for i := range ys {
		ys[i] = 100
		if i < 100 {
			ys[i] = 10000
		}
	}
	w := windowedQuantile(ys, 0.5, 12)
	if w.Value != 100 || w.N != 1200 || w.Beyond != 100 {
		t.Fatalf("windowed p50 = %+v, want 100 with n=1200 and 100 beyond", w)
	}

	var h logHist
	for i := 1; i <= 1000; i++ {
		h.add(float64(i))
	}
	hq := h.quantile(0.9)
	if hq.N != 1000 || math.Abs(hq.Value-900)/900 > 0.002 || hq.Beyond < 99 || hq.Beyond > 101 {
		t.Fatalf("histogram p90 = %+v, want about 900 with n=1000 and 100 beyond", hq)
	}
}

func TestParseProm(t *testing.T) {
	body := `# HELP x
bladed_dispatch_station_total{station="0"} 5
bladed_dispatch_station_total{station="2"} 7
bladed_outcomes_total{station="1",outcome="success"} 3
bladed_outcomes_total{station="1",outcome="error"} 9
bladed_estimator_warm 1
bladed_other 4
`
	ss, err := parseProm(strings.NewReader(body), []string{"bladed_dispatch_station_total", "bladed_outcomes_total", "bladed_estimator_warm"})
	if err != nil {
		t.Fatal(err)
	}
	if got := promByStation(ss, "bladed_dispatch_station_total", 3, nil); !reflect.DeepEqual(got, []int64{5, 0, 7}) {
		t.Errorf("dispatch counters %v", got)
	}
	if got := promByStation(ss, "bladed_outcomes_total", 3, map[string]string{"outcome": "success"}); !reflect.DeepEqual(got, []int64{0, 3, 0}) {
		t.Errorf("success outcomes %v", got)
	}
	if v := promValue(ss, "bladed_estimator_warm", nil); v != 1 {
		t.Errorf("warm gauge %g", v)
	}
	if v := promValue(ss, "bladed_other", nil); !math.IsNaN(v) {
		t.Errorf("unrequested family kept: %g", v)
	}
}

// paperOptimum is the paper's Example 1 at half load.
func paperOptimum(t *testing.T) (*model.Group, []float64, float64) {
	t.Helper()
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	res, err := core.Optimize(g, lambda, core.Options{Discipline: queueing.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Rates, lambda
}

// Every check passes the right output and fails a wrong one.
func TestChecksRejectWrongOutputs(t *testing.T) {
	g, rates, lambda := paperOptimum(t)
	n := len(rates)
	counts := make([]int64, n)
	skewed := make([]int64, n)
	const total = 100000
	for i, r := range rates {
		counts[i] = int64(math.Round(total * r / lambda))
		skewed[i] = counts[i]
	}
	// Move 3% of the decisions from the busiest station to the idlest.
	busiest, idlest := 0, 0
	for i := range rates {
		if rates[i] > rates[busiest] {
			busiest = i
		}
		if rates[i] < rates[idlest] {
			idlest = i
		}
	}
	skewed[busiest] -= total * 3 / 100
	skewed[idlest] += total * 3 / 100

	perturbed := append([]float64(nil), rates...)
	perturbed[busiest] -= 0.01 * lambda
	perturbed[idlest] += 0.01 * lambda

	down := make([]bool, n)
	for i := range down {
		down[i] = true
	}
	down[busiest] = false
	sub, err := core.OptimizeDegraded(g, lambda, down, core.Options{Discipline: queueing.FCFS})
	if err != nil {
		t.Fatal(err)
	}

	ci := metrics.Interval{Mean: 0.9, HalfWidth: 0.01, Confidence: 0.99, N: 4}
	cases := []struct {
		name      string
		good, bad func() error
	}{
		{"counts", func() error { return checkCounts("c", []int64{1, 2}, []int64{1, 2}) },
			func() error { return checkCounts("c", []int64{1, 2}, []int64{1, 3}) }},
		{"shares", func() error { return checkShares(counts, rates) },
			func() error { return checkShares(skewed, rates) }},
		{"increasing", func() error { return checkIncreasing([]int64{2, 3, 7}) },
			func() error { return checkIncreasing([]int64{2, 3, 3}) }},
		{"constant", func() error { return checkConstant(map[int64]int64{1: 40}, 1) },
			func() error { return checkConstant(map[int64]int64{1: 40, 2: 1}, 1) }},
		{"rate sum", func() error { return checkRateSum(rates, lambda) },
			func() error { return checkRateSum(rates, lambda*1.001) }},
		{"kkt", func() error { return checkKKT(g, nil, rates) },
			func() error { return checkKKT(g, nil, perturbed) }},
		{"kkt with a station down", func() error { return checkKKT(g, down, sub.Rates) },
			func() error { return checkKKT(g, nil, sub.Rates) }},
		{"table", func() error { return checkT("table1", 0.89647031, 0.8964703) },
			func() error { return checkT("table1", 0.8964705, 0.8964703) }},
		{"ci", func() error { return checkCI(0.905, ci) },
			func() error { return checkCI(0.92, ci) }},
		{"figure", func() error { return checkFigure("f", [][]float64{{1, 2, 2, 3}}) },
			func() error { return checkFigure("f", [][]float64{{1, 2, 1.5, 3}}) }},
		{"figure NaN", func() error { return checkFigure("f", [][]float64{{1}}) },
			func() error { return checkFigure("f", [][]float64{{1, math.NaN()}}) }},
		{"zero", func() error { return checkZero("z", []int64{0, 0}) },
			func() error { return checkZero("z", []int64{0, 1}) }},
		{"zero total", func() error { return checkZeroTotal("r", []promSample{{name: "r", value: 0}, {name: "x", value: 3}}) },
			func() error { return checkZeroTotal("r", []promSample{{name: "r", labels: `reason="shed"`, value: 2}}) }},
		{"fleet plan", func() error { return checkFleetPlan(g, planResp{Rates: rates}, lambda) },
			func() error { return checkFleetPlan(g, planResp{Rates: rates, Shed: 1}, lambda) }},
	}
	for _, c := range cases {
		if err := c.good(); err != nil {
			t.Errorf("%s: rejected a right output: %v", c.name, err)
		}
		if err := c.bad(); err == nil {
			t.Errorf("%s: accepted a wrong output", c.name)
		}
	}
}

// The scaled paper cluster keeps the paper's optimal split: scaling r̄
// scales every rate by the same factor.
func TestScaledPaperClusterKeepsShares(t *testing.T) {
	g, rates, lambda := paperOptimum(t)
	cfg, err := daemonConfig(paperConfigFlags("static", estWindow, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Group.MaxGenericRate() * paperFrac; math.Abs(got-staticRate) > 1e-9*staticRate {
		t.Fatalf("half of the scaled saturation is %g, want %g", got, staticRate)
	}
	res, err := core.Optimize(cfg.Group, staticRate, core.Options{Discipline: queueing.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if a, b := rates[i]/lambda, res.Rates[i]/staticRate; math.Abs(a-b) > 1e-9 {
			t.Errorf("station %d: paper share %g, scaled share %g", i, a, b)
		}
	}
	if g.N() != cfg.Group.N() {
		t.Fatalf("%d stations, want %d", cfg.Group.N(), g.N())
	}
}
