package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The traced run (--trace 1) reports per-layer metrics. It has two
// parts:
//
//  1. The workload's own traffic, run twice on one daemon: untraced,
//     then traced. Each traced request carries its client span's ID in
//     spanHeader, and a wrapping handler around Server.Handler()
//     records the matching server span, so the client span's self time
//     is the transport (the client connection, loopback, net/http server
//     handling). The ratio of the two phases' p50 latencies is the
//     tracing overhead. paper-repro has no traffic of its own; it
//     traces its reproduction passes and runs the paper-static traffic
//     as a short probe for the transport and generator figures.
//  2. Direct-call phases that time the public functions of each inner
//     layer on the workload's daemon configuration (paper-repro uses
//     paper-static's), each span around a call or a block of calls.
//
// Every traced run reports every per-layer metric, so a change to one
// layer can be followed on every workload.

func traced(r *run) error {
	r.spans = newSpanLog()
	var flags daemonFlags
	var err error
	switch r.workload {
	case "paper-static", "paper-jsq-feedback":
		policy := "static"
		if r.workload == "paper-jsq-feedback" {
			policy = "jsq2"
		}
		flags = paperConfigFlags(policy, estWindow, r.seed)
		err = tracedPaper(r, flags, warmUp, r.span(0.3))
	case "fleet-replan":
		flags = fleetConfigFlags(r.seed)
		err = tracedFleet(r, flags)
	case "paper-repro":
		flags = paperConfigFlags("static", closedWindow, r.seed)
		if err = tracedRepro(r); err == nil {
			err = tracedPaper(r, flags, 200*time.Millisecond, r.span(0.1))
		}
	}
	if err != nil {
		return err
	}
	return layerSuite(r, flags, r.span(0.3))
}

// phaseRuntime captures the runtime counters around a traced phase.
type phaseRuntime struct{ before runtime.MemStats }

func startRuntime() *phaseRuntime {
	p := &phaseRuntime{}
	runtime.ReadMemStats(&p.before)
	return p
}

func (p *phaseRuntime) report(r *run, ops int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("runtime.gc_cycles", float64(after.NumGC-p.before.NumGC), "count")
	r.set("runtime.gc_pause_ms_total", float64(after.PauseTotalNs-p.before.PauseTotalNs)/1e6, "ms")
	r.set("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-p.before.TotalAlloc)/float64(ops), "bytes")
}

// reportTraffic sets the generator, transport, server-span and
// overhead figures of an untraced/traced phase pair whose requests
// went to path. A client span is the transport's self time plus its
// server span, so the two account for the traced request latency.
func reportTraffic(r *run, path string, untraced, tracedPh *connStats) {
	late := append(append([]float64(nil), untraced.late...), tracedPh.late...)
	r.set("gen.late_p50_us", quantileOf(late, 0.5).Value, "us")
	r.set("gen.late_p99_us", quantileOf(late, 0.99).Value, "us")
	self := quantileOf(r.spans.selfTimes("client POST "+path), 0.5)
	r.set("transport.self_us_p50", self.Value, "us")
	server := quantileOf(r.spans.durations("server POST "+path), 0.5)
	r.set("serve.envelope.server_span_us_p50", server.Value, "us")
	u, t := quantileOf(untraced.lat, 0.5), quantileOf(tracedPh.lat, 0.5)
	r.set("trace.overhead_ratio", t.Value/u.Value, "ratio")
	r.note("POST %s: untraced %v, traced %v; transport self time %v, server span %v", path, u, t, self, server)
}

// tracedPaper runs the paper traffic untraced then traced on one
// daemon whose handler records server spans.
func tracedPaper(r *run, flags daemonFlags, warm, measure time.Duration) error {
	cfg, err := daemonConfig(flags)
	if err != nil {
		return err
	}
	d, err := startDaemon(cfg, r.spans.serverSpans)
	if err != nil {
		return err
	}
	feedback := flags.policy == "jsq2"
	wantWarm := flags.window == estWindow
	a, err := paperOpen(r, d, openPhase{name: "untraced", warm: warm, measure: measure, feedback: feedback, wantWarm: wantWarm})
	var b *connStats
	if err == nil {
		rt := startRuntime()
		b, err = paperOpen(r, d, openPhase{name: "traced", warm: 200 * time.Millisecond, measure: measure,
			feedback: feedback, spans: r.spans, prior: a, wantWarm: wantWarm})
		if err == nil && r.workload != "paper-repro" {
			rt.report(r, b.attempted)
		}
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	reportTraffic(r, "/v1/dispatch", a, b)
	return nil
}

func tracedFleet(r *run, flags daemonFlags) error {
	cfg, err := daemonConfig(flags)
	if err != nil {
		return err
	}
	d, err := startDaemon(cfg, r.spans.serverSpans)
	if err != nil {
		return err
	}
	a, au, _, err := fleetPhase(r, d, fleetSpans{warm: warmUp, quiet: r.span(0.15), replan: r.span(0.15)}, nil, nil)
	var b *connStats
	if err == nil {
		rt := startRuntime()
		var bu *connStats
		b, bu, _, err = fleetPhase(r, d, fleetSpans{warm: 200 * time.Millisecond, quiet: r.span(0.15), replan: r.span(0.15)},
			r.spans, merge([]*connStats{a, au}))
		if err == nil {
			rt.report(r, b.attempted+bu.attempted)
		}
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	reportTraffic(r, "/v1/dispatch/batch", a, b)
	return nil
}

// tracedRepro runs reproduction passes with a span around every
// artifact and around the simulation cross-check.
func tracedRepro(r *run) error {
	g, lambda, p, analyT, err := reproSetup()
	if err != nil {
		return err
	}
	rt := startRuntime()
	var ops int64
	deadline := time.Now().Add(r.span(0.3))
	for ops == 0 || time.Now().Before(deadline) {
		for _, id := range experiments.IDs() {
			t0 := time.Now()
			err := regenerate(id)
			r.spans.record(r.spans.newID(), 0, "experiments "+id, t0, time.Now())
			r.count(1, 0)
			r.check("repro: "+id, err)
			ops++
		}
		t0 := time.Now()
		err := simCrossCheck(g, lambda, p, analyT)
		r.spans.record(r.spans.newID(), 0, "sim cross-check", t0, time.Now())
		r.count(1, 0)
		r.check("repro: simulation cross-check", err)
		ops++
	}
	rt.report(r, ops)
	return nil
}

// --- direct-call phases ---

// layerSuite times each inner layer's public functions: the serving
// layers on a fresh daemon built from flags, then the pickers, the
// solver on the same cluster, the simulator and the experiments.
func layerSuite(r *run, flags daemonFlags, budget time.Duration) error {
	slice := budget / 8
	g, err := serveLayers(r, flags, slice)
	if err != nil {
		return err
	}
	if err := pickLayer(r, slice); err != nil {
		return err
	}
	if err := coreLayer(r, g, flags, slice); err != nil {
		return err
	}
	if err := simLayer(r, slice); err != nil {
		return err
	}
	return experimentsLayer(r)
}

// serveLayers times the serve package's entry points and handlers
// in-process and returns the daemon's cluster. The direct calls drive
// the hot path far above the planned rate, so the daemon gets bladed's
// default 30s estimation window and is closed before it warms: nothing
// sheds or re-solves on its own. Phases that report outcomes run last,
// since the failure detector reads the silence after them as a
// failure.
func serveLayers(r *run, flags daemonFlags, slice time.Duration) (*model.Group, error) {
	flags.window = closedWindow
	cfg, err := daemonConfig(flags)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	decideLayer(r, srv, slice)
	envelope(r, h, "dispatch", http.MethodPost, "/v1/dispatch", nil, http.StatusOK, slice/2)
	envelope(r, h, "batch", http.MethodPost, "/v1/dispatch/batch", []byte(`{"count":8}`), http.StatusOK, slice/2)
	if err := resolveLayer(r, srv, h, flags, slice); err != nil {
		return nil, err
	}
	metricsLayer(r, h, slice/2)
	envelope(r, h, "observe", http.MethodPost, "/v1/observe",
		[]byte(`{"station":0,"outcome":"success","latency_seconds":`+observeLatency+`}`), http.StatusAccepted, slice/2)
	outcomeLayer(r, srv, cfg.Group.N(), slice/2)
	return cfg.Group, nil
}

// repeatFor calls f in blocks of block calls until d has passed (at
// least 3 blocks) and returns each block's ns per call.
func repeatFor(r *run, name string, d time.Duration, block int, f func()) []float64 {
	var per []float64
	end := time.Now().Add(d)
	for len(per) < 3 || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < block; i++ {
			f()
		}
		t1 := time.Now()
		r.spans.record(r.spans.newID(), 0, name, t0, t1)
		per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(block))
	}
	return per
}

var sinkDecision serve.Decision

func decideLayer(r *run, srv *serve.Server, d time.Duration) {
	single := repeatFor(r, "serve Decide", d/2, 1000, func() { sinkDecision = srv.Decide() })
	dst := make([]serve.Decision, 8)
	batch := repeatFor(r, "serve DecideBatch(8)", d/2, 125, func() { srv.DecideBatch(dst) })
	r.set("serve.decide.ns_per_decision", median(single), "ns")
	r.set("serve.decide.batch8_ns_per_decision", median(batch)/8, "ns")
}

// replayBody is a request body that can be replayed without
// allocating, so the envelope's allocation count is the handler's own.
type replayBody struct {
	b   []byte
	off int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.b) {
		return 0, io.EOF
	}
	n := copy(p, b.b[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status and the body length.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// inproc serves one request through h in-process.
type inproc struct {
	h    http.Handler
	req  *http.Request
	body *replayBody
	w    *discardWriter
}

func newInproc(h http.Handler, method, path string, body []byte) *inproc {
	rb := &replayBody{b: body}
	req, err := http.NewRequest(method, "http://bladed"+path, nil)
	if err != nil {
		panic(err) // constant method and path
	}
	req.Body = rb
	req.ContentLength = int64(len(body))
	return &inproc{h: h, req: req, body: rb, w: &discardWriter{h: http.Header{}}}
}

func (c *inproc) serve() {
	c.body.off = 0
	clear(c.w.h)
	c.w.status, c.w.n = 0, 0
	c.h.ServeHTTP(c.w, c.req)
}

// envelope times one endpoint through Server.Handler() in-process.
func envelope(r *run, h http.Handler, name, method, path string, body []byte, want int, d time.Duration) {
	c := newInproc(h, method, path, body)
	var xs []float64
	bad := 0
	end := time.Now().Add(d)
	for len(xs) < 100 || time.Now().Before(end) {
		t0 := time.Now()
		c.serve()
		t1 := time.Now()
		r.spans.record(r.spans.newID(), 0, "serve.envelope "+method+" "+path, t0, t1)
		xs = append(xs, usSince(t0, t1))
		if c.w.status != want {
			bad++
		}
	}
	r.check("envelope "+path, statusErr(bad, len(xs), want))
	r.set("serve.envelope."+name+"_us_p50", quantileOf(xs, 0.5).Value, "us")
	if name == "dispatch" {
		r.set("serve.envelope.dispatch_us_p99", quantileOf(xs, 0.99).Value, "us")
		r.set("serve.envelope.allocs_per_req", testing.AllocsPerRun(200, c.serve), "count")
	}
}

func statusErr(bad, n, want int) error {
	if bad == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d in-process requests did not answer %d", bad, n, want)
}

func outcomeLayer(r *run, srv *serve.Server, n int, d time.Duration) {
	i := 0
	var err error
	per := repeatFor(r, "serve ReportOutcome", d, 1000, func() {
		if e := srv.ReportOutcome(i%n, serve.OutcomeSuccess, time.Millisecond); e != nil {
			err = e
		}
		i++
	})
	r.check("ReportOutcome", err)
	r.set("serve.outcome.report_ns", median(per), "ns")
}

// resolveLayer times in-process POST /v1/plan over the workload's λ′
// sequence, with a station toggled down and up between changes as
// fleet-replan does, and the daemon's encoding of the returned plan.
func resolveLayer(r *run, srv *serve.Server, h http.Handler, flags daemonFlags, d time.Duration) error {
	rng := seededRand(r.seed, "layer-resolve")
	n := srv.Plan().Rates
	var ms, enc []float64
	var bytesOut int
	toggled := -1
	end := time.Now().Add(d)
	for i := 0; len(ms) < 3 || time.Now().Before(end); i++ {
		if i%2 == 1 {
			up := toggled >= 0
			if !up {
				toggled = rng.IntN(len(n))
			}
			c := newInproc(h, http.MethodPost, "/v1/health", []byte(fmt.Sprintf(`{"station":%d,"up":%t}`, toggled, up)))
			c.serve()
			if c.w.status != http.StatusAccepted {
				return fmt.Errorf("in-process POST /v1/health: status %d", c.w.status)
			}
			if up {
				toggled = -1
			}
			continue
		}
		lambda := flags.rate * (1 + fleetJitter*(2*rng.Float64()-1))
		c := newInproc(h, http.MethodPost, "/v1/plan", []byte(`{"lambda":`+strconv.FormatFloat(lambda, 'g', -1, 64)+`}`))
		t0 := time.Now()
		c.serve()
		t1 := time.Now()
		r.spans.record(r.spans.newID(), 0, "serve.resolve POST /v1/plan", t0, t1)
		if c.w.status != http.StatusOK {
			return fmt.Errorf("in-process POST /v1/plan: status %d", c.w.status)
		}
		ms = append(ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
		bytesOut = c.w.n
		plan := srv.Plan()
		e0 := time.Now()
		e := json.NewEncoder(io.Discard)
		e.SetIndent("", "  ")
		if err := e.Encode(plan); err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(e0).Nanoseconds())/1e6)
	}
	r.set("serve.resolve.ms_p50", quantileOf(ms, 0.5).Value, "ms")
	r.set("serve.resolve.plan_bytes", float64(bytesOut), "bytes")
	r.set("serve.resolve.encode_ms", median(enc), "ms")
	return nil
}

func metricsLayer(r *run, h http.Handler, d time.Duration) {
	c := newInproc(h, http.MethodGet, "/metrics", nil)
	var xs []float64
	end := time.Now().Add(d)
	for len(xs) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		c.serve()
		t1 := time.Now()
		r.spans.record(r.spans.newID(), 0, "serve.metrics GET /metrics", t0, t1)
		xs = append(xs, usSince(t0, t1))
	}
	if c.w.status != http.StatusOK {
		r.check("GET /metrics", fmt.Errorf("in-process GET /metrics: status %d", c.w.status))
	}
	r.set("serve.metrics.scrape_us", median(xs), "us")
	r.set("serve.metrics.bytes", float64(c.w.n), "bytes")
}

// constDepths is a fixed depth vector for timing the power-of-d pick.
type constDepths []int64

func (c constDepths) Depth(i int) int64 { return c[i] }

var sinkPick int

// pickLayer times the dispatch pickers at the sizes their metric names
// fix: the paper's 7 stations, and a 10,000-station sparse plan.
func pickLayer(r *run, d time.Duration) error {
	g := model.LiExample1Group()
	res, err := core.Optimize(g, 0.5*g.MaxGenericRate(), core.Options{Discipline: queueing.FCFS})
	if err != nil {
		return err
	}
	p, err := dispatch.NewProbabilistic(res.Rates)
	if err != nil {
		return err
	}
	rng := seededRand(r.seed, "layer-pick")
	us := make([]float64, 1024)
	bits := make([]uint64, 1024)
	for i := range us {
		us[i] = rng.Float64()
		bits[i] = rng.Uint64()
	}
	k := 0
	pick := repeatFor(r, "dispatch Probabilistic.PickU n=7", d/3, 1000, func() {
		sinkPick = p.PickU(us[k&1023])
		k++
	})
	r.set("dispatch.pick_ns", median(pick), "ns")

	capacity := make([]float64, g.N())
	depths := make(constDepths, g.N())
	for i, s := range g.Servers {
		capacity[i] = s.Capacity(g.TaskSize) - s.SpecialRate
		depths[i] = int64(i % 3)
	}
	jsq, err := dispatch.NewPowerOfD(2, g.N(), nil, capacity, depths)
	if err != nil {
		return err
	}
	jp := repeatFor(r, "dispatch PowerOfD.PickU d=2 n=7", d/3, 1000, func() {
		sinkPick = jsq.PickU(bits[k&1023])
		k++
	})
	r.set("dispatch.jsq2_pick_ns", median(jp), "ns")

	fg, err := daemonConfig(fleetConfigFlags(r.seed))
	if err != nil {
		return err
	}
	fres, err := core.Optimize(fg.Group, fleetRate, core.Options{Discipline: queueing.FCFS, Sparse: true, CompactResult: true})
	if err != nil {
		return err
	}
	sp, err := dispatch.NewProbabilisticSparse(fleetStations, fres.Sparse.Index, fres.Sparse.Rate)
	if err != nil {
		return err
	}
	dst := make([]int32, 8)
	bp := repeatFor(r, "dispatch Probabilistic.PickBatchSparse(8) n=10000", d/3, 125, func() {
		o := (k * 8) & 1023
		sp.PickBatchSparse(us[o:o+8], dst)
		k++
	})
	r.set("dispatch.pick_batch8_sparse_ns", median(bp)/8, "ns")
	return nil
}

// coreLayer re-solves the workload's cluster with OptimizeDegraded over
// the λ′/availability sequence fleet-replan sends, warm-starting each
// solve from the previous multiplier as the daemon does.
func coreLayer(r *run, g *model.Group, flags daemonFlags, d time.Duration) error {
	rng := seededRand(r.seed, "layer-core")
	opts := core.Options{Discipline: queueing.FCFS, Sparse: flags.sparse, Parallel: flags.sparse}
	up := make([]bool, g.N())
	for i := range up {
		up[i] = true
	}
	var ms []float64
	toggled := -1
	end := time.Now().Add(d)
	for i := 0; len(ms) < 5 || time.Now().Before(end); i++ {
		if i%2 == 1 {
			if toggled < 0 {
				toggled = rng.IntN(g.N())
				up[toggled] = false
			} else {
				up[toggled] = true
				toggled = -1
			}
		}
		lambda := flags.rate * (1 + fleetJitter*(2*rng.Float64()-1))
		t0 := time.Now()
		res, err := core.OptimizeDegraded(g, lambda, up, opts)
		t1 := time.Now()
		if err != nil {
			return err
		}
		r.spans.record(r.spans.newID(), 0, "core OptimizeDegraded", t0, t1)
		opts.WarmPhi = res.Phi
		ms = append(ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	r.set("core.solve_ms_p50", quantileOf(ms, 0.5).Value, "ms")
	r.set("core.solves", float64(len(ms)), "count")
	return nil
}

// simLayer runs the simulator on the paper's cluster under the optimal
// split until d has passed and reports simulated tasks per wall second.
func simLayer(r *run, d time.Duration) error {
	g, lambda, p, _, err := reproSetup()
	if err != nil {
		return err
	}
	var tasks int64
	start := time.Now()
	for seed := int64(1); seed == 1 || time.Since(start) < d; seed++ {
		t0 := time.Now()
		res, err := sim.Run(sim.Config{Group: g, Discipline: queueing.FCFS, GenericRate: lambda,
			Dispatcher: p, Horizon: simHorizon / 4, Seed: seed})
		if err != nil {
			return err
		}
		r.spans.record(r.spans.newID(), 0, "sim Run", t0, time.Now())
		tasks += res.CompletedGeneric + res.CompletedSpecial
	}
	r.set("sim.tasks_per_s", float64(tasks)/time.Since(start).Seconds(), "1/s")
	return nil
}

// experimentsLayer regenerates the tables (several times: one takes
// about a millisecond) and every figure once.
func experimentsLayer(r *run) error {
	var tables []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for _, id := range []string{"table1", "table2"} {
			r.check("repro: "+id, regenerate(id))
		}
		t1 := time.Now()
		r.spans.record(r.spans.newID(), 0, "experiments tables", t0, t1)
		tables = append(tables, float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	t0 := time.Now()
	for _, id := range experiments.IDs() {
		if id != "table1" && id != "table2" {
			r.check("repro: "+id, regenerate(id))
		}
	}
	t1 := time.Now()
	r.spans.record(r.spans.newID(), 0, "experiments figures", t0, t1)
	r.set("experiments.tables_ms", median(tables), "ms")
	r.set("experiments.figures_ms", float64(t1.Sub(t0).Nanoseconds())/1e6, "ms")
	return nil
}
