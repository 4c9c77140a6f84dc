package serve

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// rejectReason indexes the fixed set of 503 causes. A closed enum
// (rather than free-form strings) is what lets the sharded metrics keep
// rejection counters in a plain atomic array.
type rejectReason uint8

const (
	rejectAdmission rejectReason = iota
	rejectConcurrency
	rejectShed
	numRejectReasons
)

// rejectReasonNames is indexed by rejectReason; the declaration order
// is alphabetical so the exposition stays sorted like the original
// map-based implementation.
var rejectReasonNames = [numRejectReasons]string{"admission", "concurrency", "shed"}

// metricsSnapshot is a consistent copy of the counters taken at scrape
// time.
type metricsSnapshot struct {
	dispatchTotal int64
	byStation     []int64
	rejected      [numRejectReasons]int64
	resolveTotal  int64
	resolveErrors int64
	durationCount int64
	durationSum   float64
	q50, q95, q99 float64
}

// shardedMetrics is the daemon's operational-statistics sink. It is
// lock-free on the dispatch path: monotonic counters are plain
// atomics (dispatchTotal, per-station, the reason-indexed rejection
// array) and the latency moments/quantiles are accumulated in
// GOMAXPROCS shards — each shard a Welford plus three P² estimators
// behind its own mutex, touched by roughly 1/GOMAXPROCS of requests —
// merged only at /metrics scrape time (metrics.Welford.Merge and
// metrics.MergeP2Quantiles; see the latter for the merge error bound).
type shardedMetrics struct {
	dispatchTotal atomic.Int64
	resolveTotal  atomic.Int64
	resolveErrors atomic.Int64
	rejected      [numRejectReasons]atomic.Int64
	byStation     []atomic.Int64
	shards        []latencyShard
	mask          uint64
}

// latencyShard holds one shard's latency accumulators; the pad keeps
// adjacent shards' locks off the same cache line.
type latencyShard struct {
	mu            sync.Mutex
	latency       metrics.Welford
	q50, q95, q99 *metrics.P2Quantile
	_             [64]byte
}

// p2SampleStride is the dispatch hot path's latency sampling rate: one
// request in 8 (chosen by random bits, so the sample is unbiased) takes
// the second clock reading and feeds the Welford/P² accumulators. The
// clock read itself is the dominant per-dispatch cost on the lock-free
// path, so sampling it — not just the estimator update — is what buys
// the speedup. The exposition keeps _count exact (from the atomic
// dispatch counter) and reports _sum as mean-of-sample × count, an
// unbiased estimate; quantiles come from the sampled stream, which is
// exchangeable with the full one. Must be a power of two (the sampler
// masks random bits).
const p2SampleStride = 8

func newServerMetrics(stations int) *shardedMetrics {
	n := nextPow2(runtime.GOMAXPROCS(0))
	m := &shardedMetrics{
		byStation: make([]atomic.Int64, stations),
		shards:    make([]latencyShard, n),
		mask:      uint64(n - 1),
	}
	for i := range m.shards {
		m.shards[i].q50, _ = metrics.NewP2Quantile(0.5)
		m.shards[i].q95, _ = metrics.NewP2Quantile(0.95)
		m.shards[i].q99, _ = metrics.NewP2Quantile(0.99)
	}
	return m
}

// countDispatch bumps the exact dispatch counters: two uncontended
// atomic adds, no lock.
func (m *shardedMetrics) countDispatch(station int) {
	m.dispatchTotal.Add(1)
	if station >= 0 && station < len(m.byStation) {
		m.byStation[station].Add(1)
	}
}

// countDispatchN bumps the total dispatch counter by a whole batch in
// one add; the per-station counts follow via countStationN so a batch
// costs one add per distinct station, not one per decision.
func (m *shardedMetrics) countDispatchN(n int64) {
	m.dispatchTotal.Add(n)
}

// countStationN adds a batch's per-station routed count.
func (m *shardedMetrics) countStationN(station int, n int64) {
	if station >= 0 && station < len(m.byStation) {
		m.byStation[station].Add(n)
	}
}

// observeLatencyN feeds the same measured latency n times into one
// shard's accumulators under a single lock acquisition — the batched
// path's latency sink. The batch passes its gate-hit count: each
// decision kept its own 1-in-p2SampleStride gate draw (so the sampled
// fraction stays exactly Binomial(k, 1/stride)), but the hits share the
// batch's one end-of-chunk clock read, which is the whole point of
// batching the gate.
//
//bladelint:allow lock -- per-shard mutex on the sampled latency branch, amortized to one acquisition per batch; P² quantile state has no lock-free form
//bladelint:allow randbits -- m.mask is the runtime metrics shard count minus one; u here is a fresh word drawn for shard selection, not the layout word (randbits.go: deliberate non-consumers)
func (m *shardedMetrics) observeLatencyN(seconds float64, n int, u uint64) {
	sh := &m.shards[u&m.mask]
	sh.mu.Lock()
	for i := 0; i < n; i++ {
		sh.latency.Add(seconds)
		sh.q50.Add(seconds)
		sh.q95.Add(seconds)
		sh.q99.Add(seconds)
	}
	sh.mu.Unlock()
}

// observeLatency feeds one measured latency into a shard's accumulators;
// u supplies the shard pick so the hot path can reuse its per-request
// random word.
//
//bladelint:allow lock -- per-shard mutex on a 1-in-p2SampleStride sampled branch; P² quantile state has no lock-free form
//bladelint:allow randbits -- m.mask is the runtime metrics shard count minus one; u here is a fresh word drawn for shard selection, not the layout word (randbits.go: deliberate non-consumers)
func (m *shardedMetrics) observeLatency(seconds float64, u uint64) {
	sh := &m.shards[u&m.mask]
	sh.mu.Lock()
	sh.latency.Add(seconds)
	sh.q50.Add(seconds)
	sh.q95.Add(seconds)
	sh.q99.Add(seconds)
	sh.mu.Unlock()
}

// latencyQuantile95 merges the shards' P² estimators into the current
// p95 — a scrape-frequency (cold) operation.
func (m *shardedMetrics) latencyQuantile95() float64 {
	var clones []*metrics.P2Quantile
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		clones = append(clones, sh.q95.Clone())
		sh.mu.Unlock()
	}
	return metrics.MergeP2Quantiles(clones...)
}

// reject counts one rejected request by reason.
func (m *shardedMetrics) reject(r rejectReason) {
	m.rejected[r].Add(1)
}

// resolved records the outcome of one re-solve attempt.
func (m *shardedMetrics) resolved(err error) {
	m.resolveTotal.Add(1)
	if err != nil {
		m.resolveErrors.Add(1)
	}
}

// writeTo renders the Prometheus text exposition (format 0.0.4) from a
// snapshot of the counters.
func (m *shardedMetrics) writeTo(w io.Writer, plan *Plan, rate float64, warm bool) {
	snap := metricsSnapshot{
		dispatchTotal: m.dispatchTotal.Load(),
		byStation:     make([]int64, len(m.byStation)),
		resolveTotal:  m.resolveTotal.Load(),
		resolveErrors: m.resolveErrors.Load(),
	}
	for i := range m.byStation {
		snap.byStation[i] = m.byStation[i].Load()
	}
	for r := range m.rejected {
		snap.rejected[r] = m.rejected[r].Load()
	}
	// Merge the latency shards. Each shard is locked only long enough
	// to copy its accumulators out, so a scrape never stalls more than
	// one shard's dispatch traffic at a time.
	var merged metrics.Welford
	var q50s, q95s, q99s []*metrics.P2Quantile
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		merged.Merge(&sh.latency)
		q50s = append(q50s, sh.q50.Clone())
		q95s = append(q95s, sh.q95.Clone())
		q99s = append(q99s, sh.q99.Clone())
		sh.mu.Unlock()
	}
	snap.q50 = metrics.MergeP2Quantiles(q50s...)
	snap.q95 = metrics.MergeP2Quantiles(q95s...)
	snap.q99 = metrics.MergeP2Quantiles(q99s...)
	// The duration count is the exact dispatch counter; the sum scales
	// the sampled mean up to it (exact when every dispatch was measured,
	// an unbiased estimate under hot-path sampling; see p2SampleStride).
	snap.durationCount = snap.dispatchTotal
	snap.durationSum = merged.Mean() * float64(snap.dispatchTotal)
	renderMetrics(w, snap, plan, rate, warm)
}

// renderMetrics renders the Prometheus text exposition (format 0.0.4).
// The plan and estimator gauges are passed in so the snapshot is taken
// in one place without reaching back into the server.
func renderMetrics(w io.Writer, snap metricsSnapshot, plan *Plan, rate float64, warm bool) {
	fmt.Fprintln(w, "# HELP bladed_dispatch_total Routing decisions served.")
	fmt.Fprintln(w, "# TYPE bladed_dispatch_total counter")
	fmt.Fprintf(w, "bladed_dispatch_total %d\n", snap.dispatchTotal)

	fmt.Fprintln(w, "# HELP bladed_dispatch_station_total Routing decisions per station.")
	fmt.Fprintln(w, "# TYPE bladed_dispatch_station_total counter")
	for i, c := range snap.byStation {
		fmt.Fprintf(w, "bladed_dispatch_station_total{station=%q} %d\n", fmt.Sprint(i), c)
	}

	fmt.Fprintln(w, "# HELP bladed_rejected_total Requests rejected with 503, by reason.")
	fmt.Fprintln(w, "# TYPE bladed_rejected_total counter")
	for r, c := range snap.rejected {
		if c > 0 {
			fmt.Fprintf(w, "bladed_rejected_total{reason=%q} %d\n", rejectReasonNames[r], c)
		}
	}

	fmt.Fprintln(w, "# HELP bladed_resolve_total Re-optimization attempts.")
	fmt.Fprintln(w, "# TYPE bladed_resolve_total counter")
	fmt.Fprintf(w, "bladed_resolve_total %d\n", snap.resolveTotal)
	fmt.Fprintln(w, "# HELP bladed_resolve_errors_total Re-optimization attempts that failed.")
	fmt.Fprintln(w, "# TYPE bladed_resolve_errors_total counter")
	fmt.Fprintf(w, "bladed_resolve_errors_total %d\n", snap.resolveErrors)

	fmt.Fprintln(w, "# HELP bladed_plan_version Version of the live routing plan.")
	fmt.Fprintln(w, "# TYPE bladed_plan_version gauge")
	fmt.Fprintf(w, "bladed_plan_version %d\n", plan.Version)
	fmt.Fprintln(w, "# HELP bladed_plan_lambda Generic rate the live plan was solved for.")
	fmt.Fprintln(w, "# TYPE bladed_plan_lambda gauge")
	fmt.Fprintf(w, "bladed_plan_lambda %g\n", plan.Lambda)
	fmt.Fprintln(w, "# HELP bladed_plan_shed Rate shed by degraded-mode admission control.")
	fmt.Fprintln(w, "# TYPE bladed_plan_shed gauge")
	fmt.Fprintf(w, "bladed_plan_shed %g\n", plan.Shed)
	fmt.Fprintln(w, "# HELP bladed_plan_capacity Admission ceiling of the surviving stations.")
	fmt.Fprintln(w, "# TYPE bladed_plan_capacity gauge")
	fmt.Fprintf(w, "bladed_plan_capacity %g\n", plan.Capacity)

	fmt.Fprintln(w, "# HELP bladed_lambda_estimate Observed arrival rate over the sliding window.")
	fmt.Fprintln(w, "# TYPE bladed_lambda_estimate gauge")
	fmt.Fprintf(w, "bladed_lambda_estimate %g\n", rate)
	fmt.Fprintln(w, "# HELP bladed_estimator_warm Whether a full estimation window has elapsed.")
	fmt.Fprintln(w, "# TYPE bladed_estimator_warm gauge")
	fmt.Fprintf(w, "bladed_estimator_warm %d\n", boolGauge(warm))

	fmt.Fprintln(w, "# HELP bladed_station_up Station availability (1 up, 0 down).")
	fmt.Fprintln(w, "# TYPE bladed_station_up gauge")
	for i := range snap.byStation {
		up := plan.Up == nil || (i < len(plan.Up) && plan.Up[i])
		fmt.Fprintf(w, "bladed_station_up{station=%q} %d\n", fmt.Sprint(i), boolGauge(up))
	}
	fmt.Fprintln(w, "# HELP bladed_plan_utilization Planned utilization per station.")
	fmt.Fprintln(w, "# TYPE bladed_plan_utilization gauge")
	for i, u := range plan.Utilizations {
		fmt.Fprintf(w, "bladed_plan_utilization{station=%q} %g\n", fmt.Sprint(i), u)
	}

	fmt.Fprintln(w, "# HELP bladed_request_duration_seconds Dispatch handler latency.")
	fmt.Fprintln(w, "# TYPE bladed_request_duration_seconds summary")
	fmt.Fprintf(w, "bladed_request_duration_seconds{quantile=\"0.5\"} %g\n", snap.q50)
	fmt.Fprintf(w, "bladed_request_duration_seconds{quantile=\"0.95\"} %g\n", snap.q95)
	fmt.Fprintf(w, "bladed_request_duration_seconds{quantile=\"0.99\"} %g\n", snap.q99)
	fmt.Fprintf(w, "bladed_request_duration_seconds_sum %g\n", snap.durationSum)
	fmt.Fprintf(w, "bladed_request_duration_seconds_count %d\n", snap.durationCount)
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeResilienceMetrics appends the failure-detector, breaker and
// guard series to the exposition — kept outside shardedMetrics because
// this state lives on the Server (one source of truth for breaker
// state).
func (s *Server) writeResilienceMetrics(w io.Writer) {
	nowNs := s.now().UnixNano()
	fmt.Fprintln(w, "# HELP bladed_breaker_state Circuit state per station (0 closed, 1 half-open, 2 open).")
	fmt.Fprintln(w, "# TYPE bladed_breaker_state gauge")
	for i := range s.breakers.stations {
		fmt.Fprintf(w, "bladed_breaker_state{station=%q} %d\n",
			fmt.Sprint(i), s.breakers.stations[i].state.Load())
	}
	fmt.Fprintln(w, "# HELP bladed_breaker_trips_total Breaker trips per station.")
	fmt.Fprintln(w, "# TYPE bladed_breaker_trips_total counter")
	for i := range s.breakers.stations {
		fmt.Fprintf(w, "bladed_breaker_trips_total{station=%q} %d\n",
			fmt.Sprint(i), s.breakers.stations[i].trips.Load())
	}
	fmt.Fprintln(w, "# HELP bladed_breaker_pinned Operator down-pin per station (breaker frozen).")
	fmt.Fprintln(w, "# TYPE bladed_breaker_pinned gauge")
	for i := range s.breakers.stations {
		fmt.Fprintf(w, "bladed_breaker_pinned{station=%q} %d\n",
			fmt.Sprint(i), boolGauge(s.breakers.stations[i].pinned.Load()))
	}
	fmt.Fprintln(w, "# HELP bladed_breaker_redirects_total Dispatches re-drawn off a breaker-rejected station.")
	fmt.Fprintln(w, "# TYPE bladed_breaker_redirects_total counter")
	fmt.Fprintf(w, "bladed_breaker_redirects_total %d\n", s.breakers.redirects.Load())
	fmt.Fprintln(w, "# HELP bladed_breaker_trials_total Half-open probe dispatches admitted.")
	fmt.Fprintln(w, "# TYPE bladed_breaker_trials_total counter")
	fmt.Fprintf(w, "bladed_breaker_trials_total %d\n", s.breakers.trials.Load())

	fmt.Fprintln(w, "# HELP bladed_outcomes_total Completed backend attempts by station and outcome.")
	fmt.Fprintln(w, "# TYPE bladed_outcomes_total counter")
	for i := range s.breakers.stations {
		suc, errs, tmo := s.tracker.totals(i)
		st := fmt.Sprint(i)
		fmt.Fprintf(w, "bladed_outcomes_total{station=%q,outcome=\"success\"} %d\n", st, suc)
		fmt.Fprintf(w, "bladed_outcomes_total{station=%q,outcome=\"error\"} %d\n", st, errs)
		fmt.Fprintf(w, "bladed_outcomes_total{station=%q,outcome=\"timeout\"} %d\n", st, tmo)
	}
	fmt.Fprintln(w, "# HELP bladed_outcome_error_rate EWMA failure fraction per station.")
	fmt.Fprintln(w, "# TYPE bladed_outcome_error_rate gauge")
	for i := range s.breakers.stations {
		fmt.Fprintf(w, "bladed_outcome_error_rate{station=%q} %g\n",
			fmt.Sprint(i), s.tracker.errorRate(i))
	}
	fmt.Fprintln(w, "# HELP bladed_outcome_suspicion Phi-accrual silence score per station.")
	fmt.Fprintln(w, "# TYPE bladed_outcome_suspicion gauge")
	for i := range s.breakers.stations {
		fmt.Fprintf(w, "bladed_outcome_suspicion{station=%q} %g\n",
			fmt.Sprint(i), s.tracker.suspicion(i, nowNs))
	}

	fmt.Fprintln(w, "# HELP bladed_retry_budget_tokens Retry tokens currently banked.")
	fmt.Fprintln(w, "# TYPE bladed_retry_budget_tokens gauge")
	fmt.Fprintf(w, "bladed_retry_budget_tokens %g\n",
		float64(s.guard.tokens.Load())/retryTokenScale)
	fmt.Fprintln(w, "# HELP bladed_backend_attempts_total Guarded backend attempts executed.")
	fmt.Fprintln(w, "# TYPE bladed_backend_attempts_total counter")
	fmt.Fprintf(w, "bladed_backend_attempts_total %d\n", s.guard.attempts.Load())
	fmt.Fprintln(w, "# HELP bladed_retries_total Retries granted by the retry budget.")
	fmt.Fprintln(w, "# TYPE bladed_retries_total counter")
	fmt.Fprintf(w, "bladed_retries_total %d\n", s.guard.retries.Load())
	fmt.Fprintln(w, "# HELP bladed_retries_denied_total Retries refused by an exhausted budget.")
	fmt.Fprintln(w, "# TYPE bladed_retries_denied_total counter")
	fmt.Fprintf(w, "bladed_retries_denied_total %d\n", s.guard.retriesDenied.Load())
	fmt.Fprintln(w, "# HELP bladed_hedges_total Hedged second attempts launched.")
	fmt.Fprintln(w, "# TYPE bladed_hedges_total counter")
	fmt.Fprintf(w, "bladed_hedges_total %d\n", s.guard.hedges.Load())
	fmt.Fprintln(w, "# HELP bladed_hedge_wins_total Hedged attempts that finished first.")
	fmt.Fprintln(w, "# TYPE bladed_hedge_wins_total counter")
	fmt.Fprintf(w, "bladed_hedge_wins_total %d\n", s.guard.hedgeWins.Load())
}
