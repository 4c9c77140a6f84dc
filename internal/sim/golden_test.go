package sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/failure"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/run.golden from the current simulator")

// TestRunGolden pins every statistic of a fixed set of simulator runs
// bit for bit: the Table 1 cross-check replications, both
// disciplines, non-exponential service, bounded waiting rooms, failure
// traces under both in-flight policies, generated failures with
// retries, and trace replay. The (time, seq) event order is a strict
// total order, so any change to the event calendar or the station
// bookkeeping that keeps the simulated system the same must leave this
// file byte-identical. The floats also pin the platform's arithmetic
// (amd64, without fused multiply-add). Regenerate with
//
//	go test ./internal/sim -run TestRunGolden -update
//
// only for a deliberate change to what the simulator computes.
func TestRunGolden(t *testing.T) {
	var buf bytes.Buffer
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	fcfs := optimalSplit(t, g, lambda, queueing.FCFS)
	prio := optimalSplit(t, g, lambda, queueing.Priority)

	// The Table 1 simulation cross-check of the reproduction pass.
	rep, err := sim.RunReplications(sim.Config{
		Group: g, Discipline: queueing.FCFS, GenericRate: lambda, Dispatcher: fcfs,
		Horizon: 4000, Warmup: 400, Seed: 1,
	}, 4, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	runs := rep.Runs
	rep.Runs = nil
	fmt.Fprintf(&buf, "== table1 replications\n%#v\n", *rep)
	for i, r := range runs {
		dumpRun(&buf, fmt.Sprintf("table1 replication %d", i), r)
	}

	hyper, err := sim.NewHyperExp(4)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Config{Group: g, GenericRate: lambda, Horizon: 600, Warmup: 60, Seed: 7}
	cases := []struct {
		name string
		edit func(*sim.Config)
	}{
		{"fcfs batches+histogram", func(c *sim.Config) {
			c.Dispatcher = fcfs
			c.BatchSize = 50
			c.HistogramBins, c.HistogramMax = 20, 5
		}},
		{"priority", func(c *sim.Config) {
			c.Discipline, c.Dispatcher = queueing.Priority, prio
		}},
		{"hyperexp service", func(c *sim.Config) { c.Dispatcher, c.Service = fcfs, hyper }},
		{"erlang service priority", func(c *sim.Config) {
			c.Discipline, c.Dispatcher, c.Service = queueing.Priority, prio, sim.ErlangK{K: 3}
		}},
		{"queue capacity", func(c *sim.Config) {
			c.Dispatcher, c.QueueCapacity = fcfs, 4
			c.GenericRate = 0.9 * g.MaxGenericRate()
		}},
		{"failure schedules requeue", func(c *sim.Config) {
			c.Dispatcher, c.FailureSchedules = fcfs, outageSchedules(g)
		}},
		{"failure schedules drop", func(c *sim.Config) {
			c.Discipline, c.Dispatcher, c.FailureSchedules = queueing.Priority, prio, outageSchedules(g)
			c.FailurePolicy = sim.DropInFlight
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.edit(&cfg)
		r, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dumpRun(&buf, tc.name, r)
	}

	// Generated failures with retries against bounded, health-oblivious
	// routing: retries must be exhausted both on full stations (counted
	// as blocked) and on fully-down ones (counted as lost).
	stations := make([]failure.Params, g.N())
	for i := range stations {
		stations[i] = failure.Params{MTBF: 80, MTTR: 20}
	}
	retry, err := sim.Run(sim.Config{
		Group: g, Discipline: queueing.FCFS, GenericRate: 0.8 * g.MaxGenericRate(),
		Dispatcher: fcfs, Horizon: 600, Warmup: 60, Seed: 11, QueueCapacity: 3,
		Failures: &failure.Plan{Stations: stations},
		Retry:    &sim.RetryPolicy{MaxAttempts: 2, Base: 0.05, Cap: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if retry.RetriedGeneric == 0 || retry.BlockedGeneric == 0 || retry.LostGeneric == 0 {
		t.Fatalf("retry run must retry (%d) and exhaust retries on full (%d) and down (%d) stations",
			retry.RetriedGeneric, retry.BlockedGeneric, retry.LostGeneric)
	}
	dumpRun(&buf, "failure plan with retry", retry)

	tr, err := trace.Generate(trace.Config{Group: g, GenericRate: lambda, Horizon: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		d    queueing.Discipline
		disp sim.Dispatcher
	}{{queueing.FCFS, fcfs}, {queueing.Priority, prio}} {
		r, err := sim.Replay(sim.ReplayConfig{Group: g, Discipline: c.d, Trace: tr, Dispatcher: c.disp, Warmup: 60, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		dumpRun(&buf, fmt.Sprintf("replay %s", c.d), r)
	}

	checkGolden(t, buf.Bytes(), "run.golden")
}

// optimalSplit returns the probabilistic dispatcher of the optimal rates.
func optimalSplit(t *testing.T, g *model.Group, lambda float64, d queueing.Discipline) *dispatch.Probabilistic {
	t.Helper()
	res, err := core.Optimize(g, lambda, core.Options{Discipline: d})
	if err != nil {
		t.Fatal(err)
	}
	p, err := dispatch.NewProbabilistic(res.Rates)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// outageSchedules takes the first station fully down twice and half of
// the last station's blades down once, so in-flight tasks are evicted
// and full outages are accounted.
func outageSchedules(g *model.Group) []failure.Schedule {
	scheds := make([]failure.Schedule, g.N())
	scheds[0] = failure.Schedule{{Time: 100, Down: g.Servers[0].Size}, {Time: 160, Down: 0}, {Time: 300, Down: g.Servers[0].Size}, {Time: 330, Down: 0}}
	last := g.N() - 1
	scheds[last] = failure.Schedule{{Time: 200, Down: g.Servers[last].Size / 2}, {Time: 400, Down: 0}}
	return scheds
}

// dumpRun writes a %#v dump of r with its pointer fields dereferenced,
// so the text holds values rather than addresses.
func dumpRun(buf *bytes.Buffer, name string, r *sim.RunResult) {
	v := *r
	v.GenericBatches, v.GenericHistogram = nil, nil
	fmt.Fprintf(buf, "== %s\n%#v\n", name, v)
	if r.GenericBatches != nil {
		fmt.Fprintf(buf, "GenericBatches: %#v\n", *r.GenericBatches)
	}
	if r.GenericHistogram != nil {
		fmt.Fprintf(buf, "GenericHistogram: %#v\n", *r.GenericHistogram)
	}
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, got []byte, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("simulator output differs from %s; rerun with -update only for a deliberate change:\n got: %s", path, got)
	}
}
