package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/sim"
)

// Every workload reports the same end-to-end metrics (BENCHMARK.json);
// what each one times is the workload's own:
//
//	metric      paper-static          paper-jsq-feedback    fleet-replan            paper-repro
//	setup_s     serve.New → /healthz  serve.New → /healthz  serve.New → /healthz    Table 1 solve + sim dispatcher
//	lat_p50_us  closed-loop dispatch  closed-loop task      POST /v1/plan           one whole pass with checks
//	work_per_s  closed-loop decisions closed-loop decisions closed-loop decisions   artifacts per second
//
// The open-loop latencies — each request timed from its scheduled send
// time, so a stall also counts against the requests queued behind it —
// are printed beside the metrics with their sample counts and the
// generator's lateness, but are not metrics. On a shared 2-vCPU virtual
// machine whose hypervisor steals 0–30% of CPU time in bursts, an
// open-loop request, which finds the daemon's CPU idle and has to wake
// it, is slowed by that far more than a closed loop that keeps both
// CPUs busy: over ten runs the open-loop median moved by 15–45% of
// itself, more than any bound a gate can hold it to, and the
// closed-loop round trip by 4–15%.
const (
	// staticRate and jsqRate are the planned λ′ of paper-static and
	// paper-jsq-feedback and their open-loop task rates, per second
	// (paperSpec scales r̄ so the plan sits at paperFrac of saturation).
	// A jsq task is two requests, so both send 4000 requests/s: busy
	// enough that the daemon's threads are mostly awake, which keeps
	// the per-request wake-up cost of an idle process — tens of µs that
	// vary with the host — from setting the median.
	staticRate = 4000.0
	jsqRate    = 2000.0
	paperFrac  = 0.5
	// estWindow is the daemon's -window in the open-loop phases: short
	// enough that the estimator warms during the warm-up, so the
	// measured requests take the warm admission and drift path.
	estWindow = 2 * time.Second
	// warmUp precedes every measured open-loop window.
	warmUp = estWindow + 500*time.Millisecond
	// closedWindow is the -window of the closed-loop phases, bladed's
	// default. A closed loop drives the daemon far above any planned
	// rate; the phase ends before the estimator warms, so the daemon
	// neither sheds nor re-solves, and the phase measures the routing
	// path at saturation. The closed-loop daemon also runs with
	// -breaker-off: at saturation a station's completions are a few
	// hundred µs apart, and the failure detector's silence rule (18 mean
	// gaps) trips on the few-ms stalls of a shared virtual machine. The
	// open-loop phases keep the breakers on and check that none trips.
	closedWindow = 30 * time.Second
	// setupRepeats is how many times setup_s is measured in a run.
	setupRepeats = 9
)

func runPaperStatic(r *run) error { return runPaper(r, "static") }
func runPaperJSQ(r *run) error    { return runPaper(r, "jsq2") }

func paperConfigFlags(policy string, window time.Duration, seed int64) daemonFlags {
	rate := staticRate
	if policy == "jsq2" {
		rate = jsqRate
	}
	return daemonFlags{spec: paperSpec(rate, paperFrac), rate: rate, window: window, policy: policy, seed: seed}
}

// runPaper drives paper-static (policy "static": single-shot dispatch
// under the paper's split) or paper-jsq-feedback (policy "jsq2":
// every dispatch followed by the lagged outcome report).
func runPaper(r *run, policy string) error {
	feedback := policy == "jsq2"
	cfg, err := daemonConfig(paperConfigFlags(policy, estWindow, r.seed))
	if err != nil {
		return err
	}
	d, setups, err := timedSetups(cfg, setupRepeats, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups), "s")
	m, err := paperOpen(r, d, openPhase{name: "open", warm: warmUp, measure: r.span(0.4), feedback: feedback, wantWarm: true})
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.noteOpenLoop("open-loop POST /v1/dispatch", m)
	if feedback {
		aux := timeOrdered(m.aux, m.auxAt)
		r.note("open-loop POST /v1/observe latency: %v, %v", windowedQuantile(aux, 0.5, latWindows), windowedQuantile(aux, 0.9, latWindows))
	}

	cflags := paperConfigFlags(policy, closedWindow, r.seed)
	cflags.breakerOff = true
	ccfg, err := daemonConfig(cflags)
	if err != nil {
		return err
	}
	cd, err := startDaemon(ccfg, nil)
	if err != nil {
		return err
	}
	lagged := make([][]int, connCount())
	m, rtt, perWindow, samples, err := closedLoop(r, cd, r.span(0.6), paperFamilies,
		func(ci int, c *conn, s *connStats) { paperTask(c, s, &lagged[ci], time.Now(), false, feedback, nil) },
		func(ci int, c *conn, s *connStats) { drainLagged(c, s, lagged[ci], nil) })
	if err == nil {
		r.checkPaperDaemon("closed", cd, m, samples, feedback, false)
	}
	if serr := cd.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.reportClosed(perWindow)
	what := "closed-loop POST /v1/dispatch"
	if feedback {
		what = "closed-loop task (POST /v1/dispatch, then POST /v1/observe for the decision 8 tasks back)"
	}
	r.reportLat(what, rtt.quantile(0.5), rtt.quantile(0.9))
	return nil
}

// openPhase describes one open-loop phase of a paper workload.
type openPhase struct {
	name     string
	warm     time.Duration // unmeasured lead-in
	measure  time.Duration
	feedback bool
	spans    *spanLog   // nil: untraced
	prior    *connStats // earlier phases on the same daemon, for the counter checks
	wantWarm bool       // the estimator must be warm at the end
}

// paperOpen runs one open-loop phase against d, checks the daemon's
// view against the client's, and returns the client record.
func paperOpen(r *run, d *daemon, ph openPhase) (*connStats, error) {
	conns := openConns(d.base, connCount())
	defer closeConns(conns)
	streams := poissonStreams(r.seed, "paper-"+ph.name, d.rate, len(conns), ph.warm+ph.measure)
	n := d.group.N()
	stats := make([]*connStats, len(conns))
	lagged := make([][]int, len(conns))
	for i := range stats {
		stats[i] = newConnStats(n)
		stats[i].reserve(len(streams[i]))
	}
	err := runStreams(time.Now().Add(time.Millisecond), streams, func(ci int, due time.Time, off time.Duration) {
		paperTask(conns[ci], stats[ci], &lagged[ci], due, off >= ph.warm, ph.feedback, ph.spans)
	})
	if err != nil {
		return nil, err
	}
	for ci := range conns {
		drainLagged(conns[ci], stats[ci], lagged[ci], ph.spans)
	}
	m := merge(stats)
	samples, err := conns[0].scrape(paperFamilies...)
	if err != nil {
		return nil, err
	}
	r.count(m.attempted+1, m.failed)
	total := m
	if ph.prior != nil {
		total = merge([]*connStats{ph.prior, m})
	}
	r.checkPaperDaemon(ph.name, d, total, samples, ph.feedback, ph.wantWarm)
	return m, nil
}

// closedLoop runs a closed-loop phase on d: every connection runs its
// next task as soon as the previous one completes. It returns the
// merged client record, the histogram of task round trips, the
// decision rate of each of closedWindows equal windows, and the
// daemon's counters (the named /metrics families) after the phase.
// Like windowedQuantile, callers report the least-disturbed quarter
// of the windows. finish runs once per connection after the loop.
func closedLoop(r *run, d *daemon, length time.Duration, families []string,
	task, finish func(ci int, c *conn, s *connStats)) (*connStats, *logHist, []float64, []promSample, error) {
	conns := openConns(d.base, connCount())
	defer closeConns(conns)
	n := d.group.N()
	stats := make([]*connStats, len(conns))
	hists := make([]*logHist, len(conns))
	for i := range stats {
		stats[i] = newConnStats(n)
		hists[i] = &logHist{}
	}
	perWindow := make([]float64, 0, closedWindows)
	var before int64
	for w := 0; w < closedWindows; w++ {
		start := time.Now()
		runClosed(len(conns), start.Add(length/closedWindows), func(ci int) {
			t0 := time.Now()
			task(ci, conns[ci], stats[ci])
			hists[ci].add(usSince(t0, time.Now()))
		})
		elapsed := time.Since(start)
		var now int64
		for _, s := range stats {
			for _, c := range s.dispatched {
				now += c
			}
		}
		perWindow = append(perWindow, float64(now-before)/elapsed.Seconds())
		before = now
	}
	for ci := range conns {
		if finish != nil {
			finish(ci, conns[ci], stats[ci])
		}
		if ci > 0 {
			hists[0].merge(hists[ci])
		}
	}
	m := merge(stats)
	samples, err := conns[0].scrape(families...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	r.count(m.attempted+1, m.failed)
	return m, hists[0], perWindow, samples, nil
}

// reportClosed sets work_per_s from a closed loop's windows.
func (r *run) reportClosed(perWindow []float64) {
	q := quantileOf(perWindow, 0.75)
	r.set("work_per_s", q.Value, "1/s")
	r.note("closed loop over %d connections: decisions/s upper quartile of %d windows %.0f (median %.0f)",
		connCount(), len(perWindow), q.Value, median(perWindow))
}

// closedWindows is how many windows a closed-loop phase is split into.
const closedWindows = 12

// paperFamilies are the /metrics families checkPaperDaemon reads.
var paperFamilies = []string{"bladed_dispatch_station_total", "bladed_rejected_total", "bladed_resolve_total",
	"bladed_outcomes_total", "bladed_breaker_trips_total", "bladed_estimator_warm"}

// checkPaperDaemon compares the daemon's counters with the client's
// record (every phase run on d so far) after a paper phase. Open-loop
// phases at the planned rate must also have warmed the estimator
// without a re-solve, and the static split must route each station its
// planned share.
func (r *run) checkPaperDaemon(phase string, d *daemon, m *connStats, samples []promSample, feedback, open bool) {
	n := len(m.dispatched)
	if m.failed > 0 {
		r.check(phase+": requests failed", m.firstErr)
	}
	r.check(phase+": dispatch counters", checkCounts("bladed_dispatch_station_total",
		promByStation(samples, "bladed_dispatch_station_total", n, nil), m.dispatched))
	r.check(phase+": 503s", checkZeroTotal("bladed_rejected_total", samples))
	r.check(phase+": plan version", checkConstant(m.versions, 1))
	if v := promValue(samples, "bladed_resolve_total", nil); v != 0 {
		r.check(phase+": re-solves", fmt.Errorf("%g re-solves during the phase", v))
	}
	if feedback {
		r.check(phase+": outcome counters", checkCounts("bladed_outcomes_total",
			promByStation(samples, "bladed_outcomes_total", n, map[string]string{"outcome": "success"}), m.observed))
		r.check(phase+": breaker trips", checkZero("bladed_breaker_trips_total",
			promByStation(samples, "bladed_breaker_trips_total", n, nil)))
	}
	if !open {
		return
	}
	if v := promValue(samples, "bladed_estimator_warm", nil); v != 1 {
		r.check(phase+": estimator", fmt.Errorf("estimator not warm at the end of the phase (gauge %g)", v))
	}
	if !feedback {
		r.check(phase+": station shares", checkShares(m.dispatched, d.srv.Plan().Rates))
	}
}

// noteOpenLoop prints an open-loop sample's percentiles with their
// counts, and the generator's lateness beside them.
func (r *run) noteOpenLoop(what string, m *connStats) {
	lat, late := timeOrdered(m.lat, m.at), m.late
	p50, p90, p99 := windowedQuantile(lat, 0.5, latWindows), windowedQuantile(lat, 0.9, latWindows), windowedQuantile(lat, 0.99, latWindows)
	l50, l99 := quantileOf(late, 0.5), quantileOf(late, 0.99)
	r.note("%s latency from scheduled send, lower quartile over %d windows: %v, %v, %v; whole run %v, %v",
		what, latWindows, p50, p90, p99, quantileOf(lat, 0.5), quantileOf(lat, 0.99))
	r.note("generator lateness %v, %v: p50 lateness is %.2f%% of p50 latency", l50, l99, 100*l50.Value/p50.Value)
}

// reportLat sets lat_p50_us and notes the p90 beside it.
func (r *run) reportLat(what string, p50, p90 quantile) {
	r.set("lat_p50_us", p50.Value, "us")
	r.note("%s latency: %v, %v", what, p50, p90)
}

// latWindows is how many consecutive windows an open-loop percentile
// is taken over (see windowedQuantile).
const latWindows = 12

// --- fleet-replan ---

const (
	fleetStations = 10000
	fleetBatch    = 8
	// fleetReqRate is the open-loop rate of batch requests; the planned
	// λ′ is the decision rate fleetReqRate × fleetBatch, at fleetFrac of
	// the fleet's saturation.
	fleetReqRate = 2000.0
	fleetRate    = fleetReqRate * fleetBatch
	fleetFrac    = 0.5
	// fleetJitter is the largest relative λ′ change a plan change asks
	// for. It stays well inside bladed's 20% drift threshold, so the
	// only re-solves are the ones the operator asks for.
	fleetJitter = 0.08
	// fleetSetups is setupRepeats for the fleet: each set-up is a
	// 10,000-station solve.
	fleetSetups = 5
	// replanWindows is how many windows the plan-change latencies are
	// split into (see windowedQuantile); a run makes about 150.
	replanWindows = 6
)

func fleetConfigFlags(seed int64) daemonFlags {
	return daemonFlags{spec: fleetSpec(fleetStations, fleetRate, fleetFrac), rate: fleetRate,
		window: estWindow, policy: "static", sparse: true, seed: seed}
}

func runFleetReplan(r *run) error {
	cfg, err := daemonConfig(fleetConfigFlags(r.seed))
	if err != nil {
		return err
	}
	d, setups, err := timedSetups(cfg, fleetSetups, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups), "s")
	m, under, rp, err := fleetPhase(r, d, fleetSpans{warm: warmUp, quiet: r.span(0.2), replan: r.span(0.5)}, nil, nil)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.noteOpenLoop("open-loop POST /v1/dispatch/batch", m)
	r.note("open-loop POST /v1/dispatch/batch under plan changes: %v, %v", quantileOf(under.lat, 0.5), quantileOf(under.lat, 0.9))
	r.reportLat("POST /v1/plan", windowedQuantile(rp.rtt, 0.5, replanWindows), windowedQuantile(rp.rtt, 0.9, replanWindows))
	r.note("%d plan changes and %d station toggles", len(rp.rtt), rp.toggles)

	cflags := fleetConfigFlags(r.seed)
	cflags.window = closedWindow
	ccfg, err := daemonConfig(cflags)
	if err != nil {
		return err
	}
	cd, err := startDaemon(ccfg, nil)
	if err != nil {
		return err
	}
	body := []byte(`{"count":` + strconv.Itoa(fleetBatch) + `}`)
	cm, _, perWindow, samples, err := closedLoop(r, cd, r.span(0.3), []string{"bladed_dispatch_station_total", "bladed_rejected_total"},
		func(_ int, c *conn, s *connStats) { batchOnce(c, s, body, nil) }, nil)
	if err == nil {
		r.checkFleetDaemon("closed", cm, samples)
	}
	if serr := cd.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	r.reportClosed(perWindow)
	return nil
}

// replanStats is the plan-change connection's record.
type replanStats struct {
	rtt       []float64 // µs per POST /v1/plan
	versions  []int64
	toggles   int
	attempted int64
	failed    int64
	firstErr  error
}

func (s *replanStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// fleetSpans are the parts of one fleet-replan phase: warm-up, a quiet
// window of batch dispatch alone, then batch dispatch with plan changes.
type fleetSpans struct{ warm, quiet, replan time.Duration }

// fleetPhase runs fleet-replan's traffic. One connection sends
// open-loop batch dispatches throughout; after the warm-up and the
// quiet window the other sends back-to-back operator plan changes,
// alternating a λ′ change (POST /v1/plan) with a station down/up toggle
// (POST /v1/health). The dispatches of the quiet window and of the
// plan-change window are returned separately: under back-to-back plan
// changes both CPUs are busy re-solving and encoding, and a dispatch's
// latency is how soon the Go scheduler gets to it. Every dispatch is
// checked. prior holds the dispatches of earlier phases on d, for the
// counter check.
func fleetPhase(r *run, d *daemon, fs fleetSpans, spans *spanLog, prior *connStats) (quiet, under *connStats, rp *replanStats, err error) {
	conns := openConns(d.base, 2)
	defer closeConns(conns)
	g := d.group
	n := g.N()
	streams := poissonStreams(r.seed, "fleet-batch", fleetReqRate, 1, fs.warm+fs.quiet+fs.replan)
	ds, du := newConnStats(n), newConnStats(n)
	ds.reserve(len(streams[0]))
	du.reserve(len(streams[0]))
	rp = &replanStats{}
	start := time.Now().Add(time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Until(start.Add(fs.warm + fs.quiet)))
		fleetReplans(r, conns[1], g, start.Add(fs.warm+fs.quiet+fs.replan), rp, spans)
	}()
	batchBody := []byte(`{"count":` + strconv.Itoa(fleetBatch) + `}`)
	err = runStreams(start, streams, func(_ int, due time.Time, off time.Duration) {
		s := ds
		if off >= fs.warm+fs.quiet {
			s = du
		}
		sent := time.Now()
		batchOnce(conns[0], s, batchBody, spans)
		if off >= fs.warm {
			s.sample(due, sent, time.Now())
		}
	})
	<-done
	if err != nil {
		return nil, nil, nil, err
	}
	all := merge([]*connStats{ds, du})
	samples, err := conns[0].scrape("bladed_dispatch_station_total", "bladed_rejected_total")
	if err != nil {
		return nil, nil, nil, err
	}
	r.count(all.attempted+rp.attempted+1, all.failed+rp.failed)
	if rp.failed > 0 {
		r.check("fleet: plan changes failed", rp.firstErr)
	}
	if len(rp.rtt) == 0 {
		r.check("fleet: plan changes", fmt.Errorf("no plan change completed"))
	}
	total := all
	if prior != nil {
		total = merge([]*connStats{prior, all})
	}
	r.checkFleetDaemon("open", total, samples)
	r.check("fleet: plan versions", checkIncreasing(rp.versions))
	return ds, du, rp, nil
}

// checkFleetDaemon compares the daemon's counters with the client's
// record of every batch dispatch sent to it.
func (r *run) checkFleetDaemon(phase string, m *connStats, samples []promSample) {
	if m.failed > 0 {
		r.check("fleet "+phase+": batch dispatch failed", m.firstErr)
	}
	r.check("fleet "+phase+": dispatch counters", checkCounts("bladed_dispatch_station_total",
		promByStation(samples, "bladed_dispatch_station_total", len(m.dispatched), nil), m.dispatched))
	r.check("fleet "+phase+": 503s", checkZeroTotal("bladed_rejected_total", samples))
}

// batchResp is the part of a batch dispatch response the client checks.
type batchResp struct {
	PlanVersion int64 `json:"plan_version"`
	Stations    []int `json:"stations"`
	Rejected    int   `json:"rejected"`
}

func batchOnce(c *conn, s *connStats, body []byte, spans *spanLog) {
	s.attempted++
	id := spans.newID()
	t0 := time.Now()
	status, resp, err := c.do(http.MethodPost, "/v1/dispatch/batch", body, id)
	spans.record(id, 0, "client POST /v1/dispatch/batch", t0, time.Now())
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST /v1/dispatch/batch: status %d: %s", status, resp)
	}
	var b batchResp
	if err == nil {
		err = json.Unmarshal(resp, &b)
	}
	if err == nil && (b.Rejected != 0 || len(b.Stations) != fleetBatch) {
		err = fmt.Errorf("POST /v1/dispatch/batch: %d routed, %d rejected", len(b.Stations), b.Rejected)
	}
	if err != nil {
		s.fail(err)
		return
	}
	for _, st := range b.Stations {
		if st < 0 || st >= len(s.dispatched) {
			s.fail(fmt.Errorf("POST /v1/dispatch/batch: station %d out of range", st))
			return
		}
		s.dispatched[st]++
	}
	s.versions[b.PlanVersion]++
}

// planResp is the part of a returned plan the client checks.
type planResp struct {
	Version int64     `json:"version"`
	Lambda  float64   `json:"lambda"`
	Rates   []float64 `json:"rates"`
	Up      []bool    `json:"up"`
	Shed    float64   `json:"shed"`
}

// fleetReplans sends plan changes until deadline. Every fourth
// operation cycle is: λ′ change, station down, λ′ change, same station
// up; the λ′ values and stations come from the seed. Each returned
// plan is checked after its round trip has been timed.
func fleetReplans(r *run, c *conn, g *model.Group, deadline time.Time, rp *replanStats, spans *spanLog) {
	rng := seededRand(r.seed, "fleet-replan")
	toggled := -1
	for op := 0; time.Now().Before(deadline); op++ {
		if op%2 == 1 {
			up := toggled >= 0
			if !up {
				toggled = rng.IntN(g.N())
			}
			body := []byte(fmt.Sprintf(`{"station":%d,"up":%t}`, toggled, up))
			rp.attempted++
			status, resp, err := c.do(http.MethodPost, "/v1/health", body, 0)
			if err == nil && status != http.StatusAccepted {
				err = fmt.Errorf("POST /v1/health: status %d: %.200s", status, resp)
			}
			if err != nil {
				rp.fail(err)
			}
			rp.toggles++
			if up {
				toggled = -1
			}
			continue
		}
		lambda := fleetRate * (1 + fleetJitter*(2*rng.Float64()-1))
		body := []byte(`{"lambda":` + strconv.FormatFloat(lambda, 'g', -1, 64) + `}`)
		rp.attempted++
		id := spans.newID()
		t0 := time.Now()
		status, resp, err := c.do(http.MethodPost, "/v1/plan", body, id)
		t1 := time.Now()
		spans.record(id, 0, "client POST /v1/plan", t0, t1)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("POST /v1/plan: status %d: %.200s", status, resp)
		}
		var p planResp
		if err == nil {
			err = json.Unmarshal(resp, &p)
		}
		if err != nil {
			rp.fail(err)
			continue
		}
		rp.rtt = append(rp.rtt, usSince(t0, t1))
		rp.versions = append(rp.versions, p.Version)
		r.check(fmt.Sprintf("fleet: plan %d", p.Version), checkFleetPlan(g, p, lambda))
	}
}

// checkFleetPlan checks one plan returned by POST /v1/plan.
func checkFleetPlan(g *model.Group, p planResp, lambda float64) error {
	if p.Shed != 0 {
		return fmt.Errorf("plan sheds %g", p.Shed)
	}
	if err := checkRateSum(p.Rates, lambda); err != nil {
		return err
	}
	return checkKKT(g, p.Up, p.Rates)
}

// --- paper-repro ---

// paperT are the paper's published T′ of Tables 1 and 2.
var paperT = map[string]float64{"table1": 0.8964703, "table2": 0.9209392}

// simCheck is the fixed simulation cross-check of Table 1's T′: the
// paper's cluster at half load under the optimal split, replicated
// with a fixed seed (the check is a deterministic pass or fail, never
// a coin the workload seed flips).
const (
	simSeed       = 1
	simReps       = 4
	simHorizon    = 4000
	simWarmup     = 400
	simConfidence = 0.99
)

// reproSetup prepares the cross-check: the Table 1 solve and the
// probabilistic dispatcher the simulation routes with.
func reproSetup() (*model.Group, float64, *dispatch.Probabilistic, float64, error) {
	g := model.LiExample1Group()
	lambda := 0.5 * g.MaxGenericRate()
	res, err := core.Optimize(g, lambda, core.Options{Discipline: queueing.FCFS})
	if err != nil {
		return nil, 0, nil, 0, err
	}
	p, err := dispatch.NewProbabilistic(res.Rates)
	if err != nil {
		return nil, 0, nil, 0, err
	}
	return g, lambda, p, res.AvgResponseTime, nil
}

func runPaperRepro(r *run) error {
	var setups []float64
	var (
		g      *model.Group
		lambda float64
		p      *dispatch.Probabilistic
		analyT float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if g, lambda, p, analyT, err = reproSetup(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), "s")
	ids := experiments.IDs()
	rng := seededRand(r.seed, "paper-repro")
	var art, passes []float64
	var artifacts int
	var busy time.Duration
	deadline := time.Now().Add(r.span(1))
	for len(passes) == 0 || time.Now().Before(deadline) {
		order := append([]string(nil), ids...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		t0 := time.Now()
		for _, id := range order {
			a0 := time.Now()
			err := regenerate(id)
			art = append(art, usSince(a0, time.Now()))
			artifacts++
			r.count(1, 0)
			r.check("repro: "+id, err)
		}
		r.count(1, 0)
		r.check("repro: simulation cross-check", simCrossCheck(g, lambda, p, analyT))
		dt := time.Since(t0)
		busy += dt
		passes = append(passes, float64(dt.Nanoseconds())/1e3)
	}
	r.note("artifact regeneration: %v, %v, %v", quantileOf(art, 0.5), quantileOf(art, 0.9), quantileOf(art, 0.99))
	r.reportLat("reproduction pass (repro_s)", quantileOf(passes, 0.5), quantileOf(passes, 0.9))
	r.set("work_per_s", float64(artifacts)/busy.Seconds(), "1/s")
	return nil
}

// regenerate rebuilds one table or figure, renders it as the CLI
// does, and checks it.
func regenerate(id string) error {
	e, err := experiments.ByID(id)
	if err != nil {
		return err
	}
	if e.Kind == experiments.Table {
		res, err := e.RunTable()
		if err != nil {
			return err
		}
		if err := res.WriteText(io.Discard); err != nil {
			return err
		}
		if want, ok := paperT[id]; ok {
			return checkT(id, res.T, want)
		}
		return nil
	}
	res, err := e.RunFigure()
	if err != nil {
		return err
	}
	if err := res.WriteText(io.Discard); err != nil {
		return err
	}
	return checkFigure(id, res.Values)
}

// simCrossCheck simulates the optimal split and requires the analytic
// T′ inside the replication confidence interval.
func simCrossCheck(g *model.Group, lambda float64, p *dispatch.Probabilistic, analytic float64) error {
	res, err := sim.RunReplications(sim.Config{
		Group: g, Discipline: queueing.FCFS, GenericRate: lambda, Dispatcher: p,
		Horizon: simHorizon, Warmup: simWarmup, Seed: simSeed,
	}, simReps, simConfidence)
	if err != nil {
		return err
	}
	if math.Abs(analytic-paperT["table1"]) > tTolerance {
		return fmt.Errorf("analytic T′ %.9f is not Table 1's", analytic)
	}
	return checkCI(analytic, res.GenericT)
}
