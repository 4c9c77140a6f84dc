package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newBreakerTestServer builds a daemon whose background scanner is
// effectively parked (huge ScanInterval) so tests drive healthScan by
// hand against the fake clock, making every transition deterministic.
func newBreakerTestServer(t *testing.T, clk *fakeClock, mutate func(*Config)) *Server {
	t.Helper()
	return newTestServer(t, func(c *Config) {
		c.Now = clk.Now
		c.Breaker.ScanInterval = time.Hour
		if mutate != nil {
			mutate(c)
		}
	})
}

// waitPlanVersion polls (real time) until the background resolver has
// published at least version v.
func waitPlanVersion(t *testing.T, s *Server, v int64) *Plan {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p := s.Plan(); p.Version >= v {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("plan never reached version %d (at %d)", v, s.Plan().Version)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func tripStation(t *testing.T, s *Server, clk *fakeClock, station, failures int) {
	t.Helper()
	for i := 0; i < failures; i++ {
		clk.Advance(time.Millisecond)
		s.recordOutcome(station, OutcomeError, 0.001)
	}
	s.healthScan(clk.Now())
	if got := s.breakers.stations[station].state.Load(); got != breakerOpen {
		t.Fatalf("station %d breaker %s after %d failures, want open",
			station, breakerStateNames[got], failures)
	}
}

func TestBreakerTripsOnErrorRateAndShedsStation(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, nil)

	// Below MinVolume nothing trips, however bad the rate looks.
	for i := 0; i < 5; i++ {
		clk.Advance(time.Millisecond)
		s.recordOutcome(0, OutcomeError, 0.001)
	}
	s.healthScan(clk.Now())
	if got := s.breakers.stations[0].state.Load(); got != breakerClosed {
		t.Fatalf("breaker %s below MinVolume, want closed", breakerStateNames[got])
	}

	// Past MinVolume with EWMA ≥ threshold: trip, shed, forced re-solve.
	for i := 0; i < 7; i++ {
		clk.Advance(time.Millisecond)
		s.recordOutcome(0, OutcomeError, 0.001)
	}
	s.healthScan(clk.Now())
	if got := s.breakers.stations[0].state.Load(); got != breakerOpen {
		t.Fatalf("breaker %s after sustained failures, want open", breakerStateNames[got])
	}
	if !s.breakers.rejects(0) {
		t.Fatal("open breaker must reject ordinary traffic")
	}
	plan := waitPlanVersion(t, s, 2)
	if plan.Rates[0] != 0 || plan.Survivors != s.group.N()-1 {
		t.Fatalf("tripped station still loaded: rates %v survivors %d", plan.Rates, plan.Survivors)
	}
	if s.breakers.stations[0].trips.Load() != 1 {
		t.Fatalf("trips = %d, want 1", s.breakers.stations[0].trips.Load())
	}
	// Re-scanning does not re-trip or re-resolve (edge-triggered).
	s.healthScan(clk.Now())
	if got := s.breakers.stations[0].trips.Load(); got != 1 {
		t.Fatalf("re-scan re-tripped: trips = %d", got)
	}
}

func TestBreakerPhiTripsOnSilence(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, nil)

	// Establish a 10ms completion cadence on station 1, then go silent.
	for i := 0; i < 20; i++ {
		clk.Advance(10 * time.Millisecond)
		s.recordOutcome(1, OutcomeSuccess, 0.001)
	}
	s.healthScan(clk.Now())
	if got := s.breakers.stations[1].state.Load(); got != breakerClosed {
		t.Fatalf("healthy cadence tripped the breaker: %s", breakerStateNames[got])
	}
	// Default PhiThreshold 8 needs ≈ 18 mean gaps of silence; give it 400.
	clk.Advance(4 * time.Second)
	s.healthScan(clk.Now())
	if got := s.breakers.stations[1].state.Load(); got != breakerOpen {
		t.Fatalf("silent loaded station not tripped: %s", breakerStateNames[got])
	}
	// An unloaded silent station must NOT phi-trip: station 1 is now
	// shed; once the plan drops it, continued silence is expected.
	plan := waitPlanVersion(t, s, 2)
	if plan.Rates[1] != 0 {
		t.Fatalf("phi-tripped station still loaded: %v", plan.Rates)
	}
}

func TestBreakerPhiIgnoresPauseAfterBurst(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, nil)

	// Concurrent callers complete in bursts microseconds apart; one
	// 10ms scheduler pause afterwards is not silence.
	for i := 0; i < 100; i++ {
		clk.Advance(3 * time.Microsecond)
		s.recordOutcome(1, OutcomeSuccess, 0.001)
	}
	clk.Advance(10 * time.Millisecond)
	s.healthScan(clk.Now())
	if got := s.breakers.stations[1].state.Load(); got != breakerClosed {
		t.Fatalf("a 10ms pause after a burst tripped the breaker: %s", breakerStateNames[got])
	}
}

func TestBreakerRecoversThroughTrialAndRampsIn(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, nil)
	tripStation(t, s, clk, 0, 12)
	waitPlanVersion(t, s, 2)

	// Open holds until openUntil; then half-open posts the trial station.
	s.healthScan(clk.Now())
	if got := s.breakers.stations[0].state.Load(); got != breakerOpen {
		t.Fatalf("breaker left open early: %s", breakerStateNames[got])
	}
	clk.Advance(s.cfg.Breaker.OpenInterval + time.Second)
	s.healthScan(clk.Now())
	if got := s.breakers.stations[0].state.Load(); got != breakerHalfOpen {
		t.Fatalf("breaker %s past openUntil, want half-open", breakerStateNames[got])
	}
	if got := s.breakers.trial.Load(); got != 0 {
		t.Fatalf("trial station %d, want 0", got)
	}

	// Probes: TrialSuccesses consecutive successes close the breaker.
	for i := 0; i < s.cfg.Breaker.TrialSuccesses; i++ {
		clk.Advance(time.Millisecond)
		s.recordOutcome(0, OutcomeSuccess, 0.001)
	}
	s.healthScan(clk.Now())
	if got := s.breakers.stations[0].state.Load(); got != breakerClosed {
		t.Fatalf("breaker %s after trial successes, want closed", breakerStateNames[got])
	}
	if got := s.breakers.trial.Load(); got != -1 {
		t.Fatalf("trial pointer %d after close, want -1", got)
	}
	// The readmission plan carries the capped ramp weight.
	plan := waitPlanVersion(t, s, 3)
	if plan.Rates[0] <= 0 {
		t.Fatalf("readmitted station carries no load: %v", plan.Rates)
	}
	if plan.Ramp == nil || plan.Ramp[0] >= 1 {
		t.Fatalf("readmission plan has no ramp cap: ramp %v", plan.Ramp)
	}
	if f := s.rampFactor(0, clk.Now()); f >= 1 || f < rampMinFactor {
		t.Fatalf("ramp factor %g outside [%g, 1)", f, rampMinFactor)
	}

	// Past the ramp window the station returns to full weight.
	clk.Advance(s.cfg.Breaker.RampWindow + time.Second)
	s.healthScan(clk.Now())
	plan = waitPlanVersion(t, s, 4)
	if plan.Ramp != nil {
		t.Fatalf("ramp still capped after window: %v", plan.Ramp)
	}
	if f := s.rampFactor(0, clk.Now()); f != 1 {
		t.Fatalf("ramp factor %g after window, want 1", f)
	}
}

// TestRampCompleteResolvesInsideRateLimit is the regression test for a
// plan that kept a recovery ramp cap forever: the last ramp refresh
// solves within MinResolveInterval of the scan that sees the ramp
// window end, and nothing re-triggers the ramp-complete re-solve once
// rampStart is cleared. The re-solve must go through regardless.
func TestRampCompleteResolvesInsideRateLimit(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, func(c *Config) {
		c.Breaker.PhiThreshold = 1e9 // the fake clock's jumps are not silence
		c.MinResolveInterval = time.Second
	})
	tripStation(t, s, clk, 0, 12)
	waitPlanVersion(t, s, 2)
	clk.Advance(s.cfg.Breaker.OpenInterval + time.Second)
	s.healthScan(clk.Now())
	for i := 0; i < s.cfg.Breaker.TrialSuccesses; i++ {
		clk.Advance(time.Millisecond)
		s.recordOutcome(0, OutcomeSuccess, 0.001)
	}
	s.healthScan(clk.Now())
	if got := s.breakers.stations[0].state.Load(); got != breakerClosed {
		t.Fatalf("breaker %s after trial successes, want closed", breakerStateNames[got])
	}
	waitPlanVersion(t, s, 3)

	// A ramp refresh half a second before the window ends…
	clk.Advance(s.cfg.Breaker.RampWindow - 500*time.Millisecond)
	s.healthScan(clk.Now())
	if p := waitPlanVersion(t, s, 4); p.Ramp == nil || p.Ramp[0] >= 1 {
		t.Fatalf("ramp refresh plan has no cap: ramp %v", p.Ramp)
	}
	// …then the scan past the window, 0.6 s later: inside the rate limit.
	clk.Advance(600 * time.Millisecond)
	s.healthScan(clk.Now())
	for i := 0; i < 5; i++ {
		clk.Advance(10 * time.Second)
		s.healthScan(clk.Now())
	}
	if p := waitPlanVersion(t, s, 5); p.Ramp != nil {
		t.Fatalf("plan v%d still caps the recovered station: ramp %v", p.Version, p.Ramp)
	}
}

func TestBreakerReopensWithExponentialBackoff(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, nil)
	base := int64(s.cfg.Breaker.OpenInterval)
	tripStation(t, s, clk, 0, 12)
	st := &s.breakers.stations[0]
	if got := st.interval.Load(); got != 2*base {
		t.Fatalf("interval after first trip %d, want %d", got, 2*base)
	}

	// Half-open, then a single failed probe reopens immediately with the
	// doubled interval — no scan pass needed.
	clk.Advance(s.cfg.Breaker.OpenInterval + time.Second)
	s.healthScan(clk.Now())
	openedAt := clk.Now().UnixNano()
	clk.Advance(time.Millisecond)
	s.recordOutcome(0, OutcomeError, 0.001)
	if got := st.state.Load(); got != breakerOpen {
		t.Fatalf("failed probe left breaker %s, want open", breakerStateNames[got])
	}
	if got := st.interval.Load(); got != 4*base {
		t.Fatalf("interval after reopen %d, want %d", got, 4*base)
	}
	if until := st.openUntil.Load(); until < openedAt+2*base {
		t.Fatalf("openUntil %d not armed from the doubled interval", until)
	}
	if got := st.trips.Load(); got != 2 {
		t.Fatalf("trips %d, want 2", got)
	}

	// The doubling caps at MaxOpenInterval.
	for i := 0; i < 10; i++ {
		s.breakers.reopen(st, clk.Now().UnixNano())
	}
	if got, max := st.interval.Load(), int64(s.cfg.Breaker.MaxOpenInterval); got != max {
		t.Fatalf("interval %d after repeated reopens, want capped at %d", got, max)
	}
}

func TestOperatorPinOverridesBreaker(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, nil)
	h := s.Handler()
	tripStation(t, s, clk, 0, 12)
	waitPlanVersion(t, s, 2)

	// Operator pins the station down: the breaker freezes — no amount of
	// elapsed time moves it to half-open, and no trial is posted.
	if w := postJSON(t, h, "/v1/health", map[string]any{"station": 0, "up": false}); w.Code != http.StatusAccepted {
		t.Fatalf("pin status %d", w.Code)
	}
	if !s.breakers.stations[0].pinned.Load() {
		t.Fatal("operator down did not pin the breaker")
	}
	waitPlanVersion(t, s, 3) // pin re-solve lands before the unpin below queues
	clk.Advance(time.Hour)
	s.healthScan(clk.Now())
	if got := s.breakers.stations[0].state.Load(); got != breakerOpen {
		t.Fatalf("pinned breaker moved to %s", breakerStateNames[got])
	}
	if got := s.breakers.trial.Load(); got != -1 {
		t.Fatalf("pinned station posted as trial: %d", got)
	}
	// Even probe successes cannot close a pinned breaker via the scan.
	for i := 0; i < 20; i++ {
		s.recordOutcome(0, OutcomeSuccess, 0.001)
	}
	s.healthScan(clk.Now())
	if got := s.breakers.stations[0].state.Load(); got != breakerOpen {
		t.Fatalf("pinned breaker closed by outcomes: %s", breakerStateNames[got])
	}

	// Operator "up" lifts the pin AND force-resets the breaker: closed,
	// base interval, full weight immediately (no ramp).
	if w := postJSON(t, h, "/v1/health", map[string]any{"station": 0, "up": true}); w.Code != http.StatusAccepted {
		t.Fatalf("unpin status %d", w.Code)
	}
	st := &s.breakers.stations[0]
	if st.pinned.Load() || st.state.Load() != breakerClosed {
		t.Fatalf("operator up left pinned=%v state=%s",
			st.pinned.Load(), breakerStateNames[st.state.Load()])
	}
	if got := st.interval.Load(); got != int64(s.cfg.Breaker.OpenInterval) {
		t.Fatalf("operator up did not rearm base interval: %d", got)
	}
	if f := s.rampFactor(0, clk.Now()); f != 1 {
		t.Fatalf("operator recovery must not ramp: factor %g", f)
	}
	plan := waitPlanVersion(t, s, 4)
	if plan.Rates[0] <= 0 {
		t.Fatalf("operator-recovered station carries no load: %v", plan.Rates)
	}
	if plan.Ramp != nil {
		t.Fatalf("operator recovery produced a ramp: %v", plan.Ramp)
	}
}

func TestHealthEndpointReportsBreakerState(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, nil)
	h := s.Handler()
	tripStation(t, s, clk, 2, 12)
	waitPlanVersion(t, s, 2)

	var hs HealthState
	if err := json.Unmarshal(getPath(t, h, "/v1/health").Body.Bytes(), &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Up[2] {
		t.Fatal("tripped station reported up in the effective vector")
	}
	if len(hs.Stations) != s.group.N() {
		t.Fatalf("%d station blocks, want %d", len(hs.Stations), s.group.N())
	}
	sh := hs.Stations[2]
	if sh.Breaker != "open" || sh.Trips != 1 || sh.Errors < 12 {
		t.Fatalf("station block %+v, want open breaker with 1 trip and ≥12 errors", sh)
	}
	if sh.ErrorRate < 0.5 {
		t.Fatalf("error rate %g, want ≥ 0.5", sh.ErrorRate)
	}
	if sh.OpenRemainingSeconds <= 0 {
		t.Fatalf("open remaining %g, want positive", sh.OpenRemainingSeconds)
	}
	if other := hs.Stations[0]; other.Breaker != "closed" || !other.Up {
		t.Fatalf("healthy station block %+v", other)
	}
}

func TestRetryAfterDerivation(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, nil)

	// Overload: wait for the excess fraction of the window to age out.
	d := Decision{Plan: &Plan{Capacity: 10}, Rate: 20}
	if got, want := s.retryAfterSeconds(d), 15; got != want {
		t.Fatalf("overload Retry-After %d, want %d (half of the 30s window)", got, want)
	}
	// Extreme overload clamps at the window, tiny overload at 1s.
	d.Rate = 1e6
	if got, want := s.retryAfterSeconds(d), 30; got != want {
		t.Fatalf("extreme overload Retry-After %d, want %d", got, want)
	}
	d.Rate = 10.001
	if got := s.retryAfterSeconds(d); got != 1 {
		t.Fatalf("marginal overload Retry-After %d, want 1", got)
	}

	// No overload signal: an open breaker's remaining interval is the
	// soonest the plan can improve.
	tripStation(t, s, clk, 0, 12)
	rem := time.Duration(s.breakers.stations[0].openUntil.Load() - clk.Now().UnixNano())
	want := int(rem.Seconds() + 0.999)
	if got := s.retryAfterSeconds(Decision{Plan: s.Plan(), Rate: 1}); got != want {
		t.Fatalf("breaker Retry-After %d, want %d (open remaining)", got, want)
	}

	// Neither signal: fall back to MinResolveInterval (default 1s).
	s2 := newBreakerTestServer(t, newFakeClock(), nil)
	if got := s2.retryAfterSeconds(Decision{Plan: s2.Plan(), Rate: 1}); got != 1 {
		t.Fatalf("fallback Retry-After %d, want 1", got)
	}
}

func TestApplyBreakersNeverEmptiesTheCluster(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, nil)
	// Force every breaker open: the overlay must ignore the exclusions
	// rather than leave the stream with nowhere to go.
	for i := range s.breakers.stations {
		s.breakers.stations[i].state.Store(breakerOpen)
	}
	up := make([]bool, s.group.N())
	for i := range up {
		up[i] = true
	}
	got, _ := s.applyBreakers(up)
	for i, u := range got {
		if !u {
			t.Fatalf("station %d excluded with zero survivors", i)
		}
	}
	// With one survivor, the rest are excluded as usual.
	s.breakers.stations[3].state.Store(breakerClosed)
	got, _ = s.applyBreakers(up)
	for i, u := range got {
		if want := i == 3; u != want {
			t.Fatalf("station %d up=%v, want %v", i, u, want)
		}
	}
}

func TestTrialPickDivertsProbeShare(t *testing.T) {
	clk := newFakeClock()
	s := newBreakerTestServer(t, clk, func(c *Config) {
		c.Breaker.TrialFraction = 0.3
	})
	// Post station 4 as half-open and count probe admissions.
	s.breakers.stations[4].state.Store(breakerHalfOpen)
	s.breakers.snapshotTrial()
	const n = 4000
	trials := 0
	for i := 0; i < n; i++ {
		d := s.Decide()
		if d.Trial {
			trials++
			if d.Station != 4 {
				t.Fatalf("trial routed to %d, want 4", d.Station)
			}
		}
	}
	frac := float64(trials) / n
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("trial fraction %.3f, want ≈0.3", frac)
	}
	// Clearing the trial stops probe traffic without touching the plan.
	s.breakers.stations[4].state.Store(breakerClosed)
	s.breakers.snapshotTrial()
	for i := 0; i < 500; i++ {
		if d := s.Decide(); d.Trial {
			t.Fatal("trial admitted with no half-open station")
		}
	}
}

// TestDeterministicRNGPinsTrialAdmissionSequence pins the contract that
// under DeterministicRNG a fixed seed reproduces the exact probe/pick
// sequence even while a breaker is half-open — across runs and against
// the in-test SplitMix64 reference: the trial coin is a slice of the
// request word u, and an ordinary pick that lands on the half-open
// station takes one redraw.
func TestDeterministicRNGPinsTrialAdmissionSequence(t *testing.T) {
	type step struct {
		station int
		trial   bool
	}
	const seed, trialStation = 42, 2
	fraction := 0.2
	var plan *Plan
	sequence := func() []step {
		clk := newFakeClock()
		s := newBreakerTestServer(t, clk, func(c *Config) {
			c.Seed = seed
			c.DeterministicRNG = true
			c.Breaker.TrialFraction = fraction
		})
		s.breakers.stations[trialStation].state.Store(breakerHalfOpen)
		s.breakers.snapshotTrial()
		plan = s.Plan()
		out := make([]step, 400)
		for i := range out {
			d := s.Decide()
			out[i] = step{d.Station, d.Trial}
		}
		return out
	}
	a, b := sequence(), sequence()
	ref := newSeededRef(seed)
	coin := uint64(fraction * (1 << randTrialBits))
	trials, redraws := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d diverged across same-seed runs: %+v vs %+v", i, a[i], b[i])
		}
		want := step{trialStation, true}
		if u := ref.next(); u>>randTrialShift&(1<<randTrialBits-1) >= coin {
			want = step{plan.PickU(ref.float64()), false}
			if want.station == trialStation {
				redraws++
				if alt := plan.PickU(ref.float64()); alt != trialStation {
					want.station = alt
				}
			}
		}
		if a[i] != want {
			t.Fatalf("step %d: %+v, reference %+v", i, a[i], want)
		}
		if a[i].trial {
			trials++
		}
	}
	if trials == 0 || redraws == 0 {
		t.Fatalf("test premise: %d trial admissions and %d redraws in 400 draws", trials, redraws)
	}
}

// TestStressBreakerChurnConcurrentDecide hammers Decide from every
// core while the failure detector trips, half-opens and recovers the
// busiest station in a tight loop — the race-detector workout for the
// breaker/dispatch interaction.
func TestStressBreakerChurnConcurrentDecide(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Breaker.ScanInterval = time.Hour // scans driven below
		c.Breaker.MinVolume = 5
		c.Breaker.OpenInterval = time.Millisecond
		c.Breaker.TrialSuccesses = 3
		c.Breaker.RampWindow = 5 * time.Millisecond
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var badStations atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := s.Decide()
				if !d.Rejected && (d.Station < 0 || d.Station >= s.group.N()) {
					badStations.Add(1)
				}
			}
		}()
	}
	// Churn: trip station 0, walk it through half-open back to closed,
	// repeat. Every transition races against the Decide storm above.
	for cycle := 0; cycle < 20; cycle++ {
		for i := 0; i < 12; i++ {
			s.recordOutcome(0, OutcomeError, 0.0001)
		}
		s.healthScan(s.now())
		time.Sleep(2 * time.Millisecond)
		s.healthScan(s.now()) // open → half-open
		for i := 0; i < 5; i++ {
			s.recordOutcome(0, OutcomeSuccess, 0.0001)
		}
		s.healthScan(s.now()) // half-open → closed + ramp
		time.Sleep(6 * time.Millisecond)
		s.healthScan(s.now()) // ramp complete
	}
	close(stop)
	wg.Wait()
	if n := badStations.Load(); n > 0 {
		t.Fatalf("%d decisions returned an out-of-range station", n)
	}
	if got := s.breakers.stations[0].trips.Load(); got < 10 {
		t.Fatalf("only %d trips across 20 churn cycles", got)
	}
	st := &s.breakers.stations[0]
	if state := st.state.Load(); state < breakerClosed || state > breakerOpen {
		t.Fatalf("corrupt breaker state %d", state)
	}
}
