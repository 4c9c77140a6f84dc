package serve

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, manually advanced clock shared by the
// estimator and server tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// estimatorImpls runs a subtest against the sharded lock-free
// estimator, the one RateEstimator implementation.
func estimatorImpls(t *testing.T, f func(t *testing.T, mk func(window time.Duration, buckets int, now func() time.Time) *RateEstimator)) {
	t.Run("sharded", func(t *testing.T) {
		f(t, NewRateEstimator)
	})
}

func TestRateEstimatorSteadyRate(t *testing.T) {
	estimatorImpls(t, func(t *testing.T, mk func(time.Duration, int, func() time.Time) *RateEstimator) {
		clk := newFakeClock()
		e := mk(10*time.Second, 10, clk.Now)
		if e.Warm() {
			t.Fatal("estimator warm before any observation")
		}
		// 10 arrivals per second for 20 seconds.
		for i := 0; i < 200; i++ {
			e.Observe(1)
			clk.Advance(100 * time.Millisecond)
		}
		if !e.Warm() {
			t.Fatal("estimator should be warm after two windows")
		}
		if r := e.Rate(); math.Abs(r-10) > 1.5 {
			t.Fatalf("rate = %.3f, want ≈10", r)
		}
		if e.Observed() != 200 {
			t.Fatalf("observed = %d, want 200", e.Observed())
		}
	})
}

func TestRateEstimatorEarlyReadings(t *testing.T) {
	estimatorImpls(t, func(t *testing.T, mk func(time.Duration, int, func() time.Time) *RateEstimator) {
		clk := newFakeClock()
		e := mk(10*time.Second, 10, clk.Now)
		// 5 arrivals/s for 2 seconds: an early reading must divide by the
		// elapsed span, not the full window (which would report 1/s).
		for i := 0; i < 10; i++ {
			e.Observe(1)
			clk.Advance(200 * time.Millisecond)
		}
		if e.Warm() {
			t.Fatal("estimator warm after 2s of a 10s window")
		}
		if r := e.Rate(); math.Abs(r-5) > 1.5 {
			t.Fatalf("early rate = %.3f, want ≈5", r)
		}
	})
}

func TestRateEstimatorIdleGapClears(t *testing.T) {
	estimatorImpls(t, func(t *testing.T, mk func(time.Duration, int, func() time.Time) *RateEstimator) {
		clk := newFakeClock()
		e := mk(10*time.Second, 10, clk.Now)
		for i := 0; i < 100; i++ {
			e.Observe(1)
			clk.Advance(100 * time.Millisecond)
		}
		if r := e.Rate(); r < 5 {
			t.Fatalf("rate before gap = %.3f", r)
		}
		// A gap longer than the window must wipe the whole ring: the old
		// burst is no longer evidence of current load.
		clk.Advance(time.Minute)
		if r := e.Rate(); r != 0 {
			t.Fatalf("rate after idle gap = %.3f, want 0", r)
		}
	})
}

func TestRateEstimatorRateDecaysAsWindowSlides(t *testing.T) {
	estimatorImpls(t, func(t *testing.T, mk func(time.Duration, int, func() time.Time) *RateEstimator) {
		clk := newFakeClock()
		e := mk(10*time.Second, 10, clk.Now)
		for i := 0; i < 100; i++ {
			e.Observe(1)
			clk.Advance(100 * time.Millisecond)
		}
		full := e.Rate()
		clk.Advance(5 * time.Second) // half the burst slides out
		half := e.Rate()
		if half >= full {
			t.Fatalf("rate did not decay: %.3f → %.3f", full, half)
		}
		if math.Abs(half-full/2) > 1.5 {
			t.Fatalf("half-window rate = %.3f, want ≈%.3f", half, full/2)
		}
	})
}

// Regression: Observe used to truncate fractional counts into the
// lifetime counter (observed += int64(n)), so sub-unit observations —
// batch weights, sampled streams — never registered. The count now
// accumulates in float and rounds once at read.
func TestRateEstimatorFractionalObservations(t *testing.T) {
	estimatorImpls(t, func(t *testing.T, mk func(time.Duration, int, func() time.Time) *RateEstimator) {
		clk := newFakeClock()
		e := mk(10*time.Second, 10, clk.Now)
		// 40 half-arrivals over 4 seconds: 20 arrivals at 5/s.
		for i := 0; i < 40; i++ {
			e.Observe(0.5)
			clk.Advance(100 * time.Millisecond)
		}
		if got := e.Observed(); got != 20 {
			t.Fatalf("observed = %d, want 20 (fractional counts truncated)", got)
		}
		if r := e.Rate(); math.Abs(r-5) > 1.5 {
			t.Fatalf("fractional rate = %.3f, want ≈5", r)
		}
	})
}
