package serve

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestOutcomeTrackerCountsExactAcrossShards(t *testing.T) {
	tr := newOutcomeTracker(3, 4)
	// Spread records across every shard index; totals must merge exactly.
	for u := uint64(0); u < 40; u++ {
		tr.record(1, OutcomeSuccess, int64(u+1), 0.001, u)
	}
	for u := uint64(0); u < 7; u++ {
		tr.record(1, OutcomeError, int64(u+100), 0.001, u)
	}
	tr.record(1, OutcomeTimeout, 200, 0.001, 3)
	suc, errs, tmo := tr.totals(1)
	if suc != 40 || errs != 7 || tmo != 1 {
		t.Fatalf("totals = %d/%d/%d, want 40/7/1", suc, errs, tmo)
	}
	// Other stations are untouched.
	if suc, errs, tmo := tr.totals(0); suc+errs+tmo != 0 {
		t.Fatalf("station 0 totals = %d/%d/%d, want zeros", suc, errs, tmo)
	}
	// Out-of-range and unknown-kind records are dropped, not panics.
	tr.record(-1, OutcomeSuccess, 1, 0, 0)
	tr.record(3, OutcomeSuccess, 1, 0, 0)
	tr.record(0, numOutcomes, 1, 0, 0)
	if suc, errs, tmo := tr.totals(0); suc+errs+tmo != 0 {
		t.Fatalf("invalid records leaked into totals: %d/%d/%d", suc, errs, tmo)
	}
}

func TestOutcomeTrackerErrorRateEWMA(t *testing.T) {
	tr := newOutcomeTracker(1, 1)
	if got := tr.errorRate(0); got != 0 {
		t.Fatalf("initial error rate %g, want 0", got)
	}
	// The error rate never seeds: the first failure blends from zero.
	tr.record(0, OutcomeError, 1, 0.001, 0)
	if got := tr.errorRate(0); math.Abs(got-ewmaErrAlpha) > 1e-12 {
		t.Fatalf("error rate after one failure %g, want %g", got, ewmaErrAlpha)
	}
	tr.record(0, OutcomeSuccess, 2, 0.001, 0)
	want := (1 - ewmaErrAlpha) * ewmaErrAlpha
	if got := tr.errorRate(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("error rate after failure+success %g, want %g", got, want)
	}
	// A long failure run converges toward 1 — the trip regime.
	for i := 0; i < 50; i++ {
		tr.record(0, OutcomeTimeout, int64(10+i), 0.001, 0)
	}
	if got := tr.errorRate(0); got < 0.99 {
		t.Fatalf("error rate after 50 failures %g, want ≈1", got)
	}
	tr.resetError(0)
	if got := tr.errorRate(0); got != 0 {
		t.Fatalf("error rate after reset %g, want 0", got)
	}
}

func TestOutcomeTrackerLatencyMeanSeeds(t *testing.T) {
	tr := newOutcomeTracker(1, 1)
	tr.record(0, OutcomeSuccess, 1, 0.050, 0)
	if got := tr.latencyMean(0); math.Abs(got-0.050) > 1e-12 {
		t.Fatalf("latency mean seeds at first sample: %g, want 0.050", got)
	}
	tr.record(0, OutcomeSuccess, 2, 0.150, 0)
	want := ewmaLatAlpha*0.150 + (1-ewmaLatAlpha)*0.050
	if got := tr.latencyMean(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("latency mean %g, want %g", got, want)
	}
	// Negative latency means "unknown" and is skipped.
	tr.record(0, OutcomeSuccess, 3, -1, 0)
	if got := tr.latencyMean(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("unknown latency moved the mean: %g, want %g", got, want)
	}
}

func TestSuspicionMeasuresSilence(t *testing.T) {
	tr := newOutcomeTracker(1, 1)
	base := time.Unix(1_700_000_000, 0).UnixNano()
	// No completions yet: suspicion must stay zero no matter how late.
	if got := tr.suspicion(0, base+int64(time.Hour)); got != 0 {
		t.Fatalf("suspicion before any completion %g, want 0", got)
	}
	// Establish a 10ms completion cadence.
	gap := int64(10 * time.Millisecond)
	at := base
	for i := 0; i < 5; i++ {
		tr.record(0, OutcomeSuccess, at, 0.001, 0)
		at += gap
	}
	last := at - gap
	// One mean gap of silence ≈ log10(e); a hundred ≈ 43.
	one := tr.suspicion(0, last+gap)
	if math.Abs(one-log10E) > 0.01 {
		t.Fatalf("suspicion after one mean gap %g, want ≈%g", one, log10E)
	}
	hundred := tr.suspicion(0, last+100*gap)
	if math.Abs(hundred-100*log10E) > 1 {
		t.Fatalf("suspicion after 100 mean gaps %g, want ≈%g", hundred, 100*log10E)
	}
	// touch restamps the clock, so suspicion restarts from zero silence.
	tr.touch(0, last+100*gap)
	if got := tr.suspicion(0, last+101*gap); got > 2*log10E {
		t.Fatalf("suspicion after touch %g, want ≈%g", got, log10E)
	}
}

// TestSuspicionToleratesBurstThenPause feeds the completion shape of
// concurrent callers — a burst a few microseconds apart — and then one
// scheduler-sized 10ms pause. The pause must score about one floored
// mean gap, not the thousand-odd raw gaps it spans, while a real
// outage still scores far above the default threshold.
func TestSuspicionToleratesBurstThenPause(t *testing.T) {
	var cfg BreakerConfig
	cfg.withDefaults()
	tr := newOutcomeTracker(1, 1)
	burstGap := int64(3 * time.Microsecond)
	at := time.Unix(1_700_000_000, 0).UnixNano()
	for i := 0; i < 100; i++ {
		tr.record(0, OutcomeSuccess, at, 0.001, 0)
		at += burstGap
	}
	last := at - burstGap
	if got := tr.suspicion(0, last+int64(10*time.Millisecond)); got > 1.01*log10E {
		t.Fatalf("suspicion after a 10ms pause %g, want ≈%g (threshold %g)", got, log10E, cfg.PhiThreshold)
	}
	if got := tr.suspicion(0, last+int64(4*time.Second)); got < 10*cfg.PhiThreshold {
		t.Fatalf("suspicion after 4s of silence %g, want ≥ %g", got, 10*cfg.PhiThreshold)
	}
}

func TestEwmaUpdateSeedSemantics(t *testing.T) {
	var a atomic.Uint64
	ewmaUpdate(&a, 4.0, 0.5, true)
	if got := math.Float64frombits(a.Load()); got != 4.0 {
		t.Fatalf("seeded first sample %g, want 4", got)
	}
	ewmaUpdate(&a, 8.0, 0.5, true)
	if got := math.Float64frombits(a.Load()); got != 6.0 {
		t.Fatalf("second sample %g, want 6", got)
	}
	var b atomic.Uint64
	ewmaUpdate(&b, 4.0, 0.5, false)
	if got := math.Float64frombits(b.Load()); got != 2.0 {
		t.Fatalf("unseeded first sample %g, want 2 (blend from zero)", got)
	}
}
