package serve

import (
	"math"
	"sync/atomic"
)

// Outcome classifies one completed backend attempt for the health
// tracker. Callers that execute work themselves (rather than through
// Server.Dispatch) report outcomes via Server.ReportOutcome or the
// POST /v1/observe endpoint so the failure detector can see them.
type Outcome uint8

const (
	// OutcomeSuccess is a completed attempt the client would accept.
	OutcomeSuccess Outcome = iota
	// OutcomeError is a failed attempt (backend error, connection
	// refused, …) that completed promptly.
	OutcomeError
	// OutcomeTimeout is an attempt abandoned at its deadline — the
	// strongest single signal of a blacked-out station.
	OutcomeTimeout
	numOutcomes
)

// outcomeNames is indexed by Outcome, declaration order.
var outcomeNames = [numOutcomes]string{"success", "error", "timeout"}

// EWMA smoothing constants for the per-station health statistics. The
// error rate uses a slower constant than the completion-gap mean: a
// single failure should nudge suspicion, not trip a breaker.
const (
	ewmaErrAlpha = 0.1
	ewmaGapAlpha = 0.2
	ewmaLatAlpha = 0.1
)

// minGapMean floors the completion-gap mean, in seconds, that
// suspicion divides by. Concurrent callers report completions in
// bursts microseconds apart, so the EWMA gap mean can sit far below
// the pauses any goroutine sees on a loaded host: the Go scheduler
// preempts after 10ms and an OS time slice is of the same order.
// Without the floor one such pause after a burst reads as hundreds of
// missed completions; with it, a 10ms pause scores about log₁₀e.
const minGapMean = 0.010

// log10E converts a natural-units ratio into the base-10 logarithm the
// phi-accrual literature quotes thresholds in (Hayashibara et al.).
const log10E = 0.4342944819032518

// outcomeShard is one CPU shard's counters for one station; padded so
// concurrent recorders on different shards never false-share.
type outcomeShard struct {
	counts [numOutcomes]atomic.Int64
	_      [40]byte
}

// stationEWMA is the per-station smoothed health state. Floats are
// stored as their IEEE bits in atomic words and updated with CAS
// loops, so the recorder stays lock-free and allocation-free.
type stationEWMA struct {
	errRate  atomic.Uint64 // EWMA of the 0/1 failure indicator
	gapMean  atomic.Uint64 // EWMA inter-completion gap, seconds
	latMean  atomic.Uint64 // EWMA attempt latency, seconds
	lastDone atomic.Int64  // unix nanos of the latest completion
	_        [88]byte
}

// outcomeTracker is the per-station failure detector state: sharded
// exact counters (merged only at scrape/scan time) plus the EWMA
// statistics the breaker's trip conditions read.
type outcomeTracker struct {
	nshards int
	mask    uint64
	shards  []outcomeShard // station-major: stations × nshards
	ewma    []stationEWMA
}

func newOutcomeTracker(stations, shards int) *outcomeTracker {
	n := nextPow2(shards)
	return &outcomeTracker{
		nshards: n,
		mask:    uint64(n - 1),
		shards:  make([]outcomeShard, stations*n),
		ewma:    make([]stationEWMA, stations),
	}
}

// record feeds one completion into the tracker. u supplies the shard
// pick so hot callers can reuse their per-request random word. Runs
// under the hot-path discipline: atomic ops only, no allocation.
//
//bladelint:allow randbits -- t.mask is the runtime outcome shard count minus one, a contention cap rather than a layout slice; the low bits it reads are the est slice the estimator also shards by
func (t *outcomeTracker) record(station int, kind Outcome, atNanos int64, latencySeconds float64, u uint64) {
	if station < 0 || station >= len(t.ewma) || kind >= numOutcomes {
		return
	}
	t.shards[station*t.nshards+int(u&t.mask)].counts[kind].Add(1)
	e := &t.ewma[station]
	fail := 0.0
	if kind != OutcomeSuccess {
		fail = 1
	}
	ewmaUpdate(&e.errRate, fail, ewmaErrAlpha, false)
	if latencySeconds >= 0 {
		ewmaUpdate(&e.latMean, latencySeconds, ewmaLatAlpha, true)
	}
	last := e.lastDone.Swap(atNanos)
	if last > 0 && atNanos > last {
		ewmaUpdate(&e.gapMean, float64(atNanos-last)/1e9, ewmaGapAlpha, true)
	}
}

// ewmaUpdate CAS-merges one sample into a float-bits atomic. With seed
// set, the first sample (zero bits) becomes the estimate directly —
// right for means of positive quantities (gaps, latencies). Without
// it, updates always blend from zero — right for the error rate, whose
// resting state really is zero.
func ewmaUpdate(a *atomic.Uint64, x, alpha float64, seed bool) {
	for {
		old := a.Load()
		var next float64
		if seed && old == 0 {
			next = x
		} else {
			next = alpha*x + (1-alpha)*math.Float64frombits(old)
		}
		if a.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// totals merges the shards of one station into exact counters.
func (t *outcomeTracker) totals(station int) (success, errs, timeouts int64) {
	base := station * t.nshards
	for s := 0; s < t.nshards; s++ {
		sh := &t.shards[base+s]
		success += sh.counts[OutcomeSuccess].Load()
		errs += sh.counts[OutcomeError].Load()
		timeouts += sh.counts[OutcomeTimeout].Load()
	}
	return success, errs, timeouts
}

// errorRate returns the station's EWMA failure fraction in [0, 1].
func (t *outcomeTracker) errorRate(station int) float64 {
	return math.Float64frombits(t.ewma[station].errRate.Load())
}

// latencyMean returns the station's EWMA attempt latency in seconds.
func (t *outcomeTracker) latencyMean(station int) float64 {
	return math.Float64frombits(t.ewma[station].latMean.Load())
}

// suspicion is a phi-accrual-style score from the inter-completion
// gap process: under an exponential gap model with the observed mean,
// φ = −log₁₀ P(gap > silence) = log₁₀e · silence/mean. A station that
// has been silent for k mean gaps scores ≈ 0.43·k; thresholds of 8–16
// therefore demand tens of missed completions, which makes the score
// robust to ordinary jitter. The mean is floored at minGapMean, so
// bursty completion streams do not turn a scheduler pause into a
// trip. Zero until the station has completed work and established a
// gap mean.
func (t *outcomeTracker) suspicion(station int, nowNanos int64) float64 {
	e := &t.ewma[station]
	last := e.lastDone.Load()
	if last <= 0 || nowNanos <= last {
		return 0
	}
	mean := math.Float64frombits(e.gapMean.Load())
	if !(mean > 0) {
		return 0
	}
	return log10E * (float64(nowNanos-last) / 1e9) / math.Max(mean, minGapMean)
}

// resetError clears the EWMA error rate — called when a breaker closes
// after a successful trial sequence, so stale failure history cannot
// immediately re-trip it.
func (t *outcomeTracker) resetError(station int) {
	t.ewma[station].errRate.Store(0)
}

// touch restamps the station's completion clock without recording an
// outcome — used when a breaker enters half-open, so suspicion
// measures silence of the probe stream rather than of the outage.
func (t *outcomeTracker) touch(station int, atNanos int64) {
	t.ewma[station].lastDone.Store(atNanos)
}
