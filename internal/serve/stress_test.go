package serve

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRateEstimatorConcurrentStress hammers the sharded estimator with
// concurrent writers and readers (run under -race in CI). The window is
// longer than the test so no bucket rotates: every observation must
// survive into both Observed and Rate.
func TestRateEstimatorConcurrentStress(t *testing.T) {
	const writers, perWriter = 8, 5000
	e := NewRateEstimator(time.Hour, 10, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.Rate()
					e.Warm()
					e.Observed()
				}
			}
		}()
	}
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				e.Observe(1)
			}
		}()
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()
	if got := e.Observed(); got != writers*perWriter {
		t.Fatalf("observed = %d, want %d (lost concurrent observations)", got, writers*perWriter)
	}
	// Bypass the quantum cache (a concurrent reader may have cached a
	// merge from before the writers produced anything) and check the
	// full hour-long window kept every observation.
	if r := e.rateAt(time.Now()); r <= 0 {
		t.Fatalf("uncached rate = %g after %d observations", r, writers*perWriter)
	}
}

// TestShardedMetricsConcurrentStress runs concurrent dispatch
// observations, rejections, and scrapes (run under -race in CI), then
// checks no count was lost.
func TestShardedMetricsConcurrentStress(t *testing.T) {
	const writers, perWriter, stations = 8, 4000, 3
	m := newServerMetrics(stations)
	plan := &Plan{Version: 1, Utilizations: make([]float64, stations)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
				buf.Reset()
				m.writeTo(&buf, plan, 1.0, true)
			}
		}
	}()
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				m.countDispatch((w + i) % stations)
				m.observeLatency(float64(i%100)/1e4, uint64(w+i))
				if i%16 == 0 {
					m.reject(rejectAdmission)
				}
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()

	var buf bytes.Buffer
	m.writeTo(&buf, plan, 1.0, true)
	out := buf.String()
	mustContain := []string{
		fmt.Sprintf("bladed_dispatch_total %d", writers*perWriter),
		fmt.Sprintf(`bladed_rejected_total{reason="admission"} %d`, writers*(perWriter/16)),
		fmt.Sprintf("bladed_request_duration_seconds_count %d", writers*perWriter),
	}
	for _, want := range mustContain {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	var perStation int64
	for i := 0; i < stations; i++ {
		perStation += m.byStation[i].Load()
	}
	if perStation != writers*perWriter {
		t.Fatalf("per-station counts sum to %d, want %d", perStation, writers*perWriter)
	}
}

// TestDispatchDecideConcurrentStress drives the full lock-free Decide
// path from many goroutines (run under -race in CI) and checks the
// dispatch counter kept up.
func TestDispatchDecideConcurrentStress(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Window = time.Hour // keep the estimator cold: no shedding
	})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := s.Decide()
				if d.Rejected {
					t.Errorf("unexpected rejection: %s", d.Reason)
					return
				}
				if d.Station < 0 || d.Station >= s.group.N() {
					t.Errorf("station %d out of range", d.Station)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.est.Observed(); got != workers*perWorker {
		t.Fatalf("estimator observed %d, want %d", got, workers*perWorker)
	}
	if got := s.m.dispatchTotal.Load(); got != workers*perWorker {
		t.Fatalf("dispatch total %d, want %d", got, workers*perWorker)
	}
}

// TestDeterministicRNGConcurrentStress drives Decide under
// DeterministicRNG from several goroutines (run under -race in CI).
// Interleaving permutes which request gets which word, but the one
// stream must hand out every word exactly once: after the join it has
// advanced exactly two outputs per decision (the request word and the
// pick variate), as the in-test reference confirms.
func TestDeterministicRNGConcurrentStress(t *testing.T) {
	const seed, workers, perWorker = 42, 8, 2000
	s := newTestServer(t, func(c *Config) {
		c.Seed = seed
		c.DeterministicRNG = true
		c.Window = time.Hour // keep the estimator cold: no admission coin
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if d := s.Decide(); d.Rejected || d.Station < 0 {
					t.Errorf("unexpected decision %+v", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	ref := newSeededRef(seed)
	for i := 0; i < 2*workers*perWorker; i++ {
		ref.next()
	}
	if got := s.rnd.shards[0].state.Load(); got != ref.x {
		t.Fatalf("stream state %#x after %d decisions, reference %#x", got, workers*perWorker, ref.x)
	}
	if got := s.m.dispatchTotal.Load(); got != workers*perWorker {
		t.Fatalf("dispatch total %d, want %d", got, workers*perWorker)
	}
}

// splitmixRef is an in-test SplitMix64 (Steele, Lea & Flood, 2014),
// written from the published algorithm rather than from rng.go, so the
// determinism tests check the server against an independent reference
// of the documented draw order (shardedRNG's doc).
type splitmixRef struct{ x uint64 }

func (r *splitmixRef) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float64 maps the next output's top 53 bits onto [0, 1).
func (r *splitmixRef) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// newSeededRef returns the stream Config.DeterministicRNG draws from
// for seed: its state is the first SplitMix64 output of the seed.
func newSeededRef(seed int64) *splitmixRef {
	r := splitmixRef{x: uint64(seed)}
	return &splitmixRef{x: r.next()}
}

// TestSplitmixRefKnownAnswer anchors the reference to the published
// SplitMix64 outputs for seed 1234567.
func TestSplitmixRefKnownAnswer(t *testing.T) {
	r := splitmixRef{x: 1234567}
	for i, want := range []uint64{
		6457827717110365317, 3203168211198807973, 9817491932198370423,
		4593380528125082431, 16408922859458223821,
	} {
		if got := r.next(); got != want {
			t.Fatalf("output %d: %d, want %d", i, got, want)
		}
	}
}

// TestDeterministicRNGReproducesDispatchSequence pins the
// Config.DeterministicRNG contract against the in-test reference: per
// request the seeded stream yields the request word u, then (while the
// plan sheds) the admission coin, then the static pick variate that
// plan.PickU turns into the station. The estimator stays cold, so the
// only admission draw is the planned shed's.
func TestDeterministicRNGReproducesDispatchSequence(t *testing.T) {
	for _, tc := range []struct {
		name string
		load float64 // λ′ as a multiple of the saturation rate
	}{
		{"deterministic-rng", 0.5},
		{"shed", 1.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed, draws = 42, 500
			s := newTestServer(t, func(c *Config) {
				c.Seed = seed
				c.DeterministicRNG = true
				c.Window = time.Hour
				c.Lambda = tc.load * c.Group.MaxGenericRate()
			})
			plan := s.Plan()
			shedding := plan.Shed > 0
			admit := plan.Admitted / (plan.Admitted + plan.Shed)
			ref := newSeededRef(seed)
			seen := map[int]bool{}
			for i := 0; i < draws; i++ {
				ref.next() // the request word u
				want := -1
				if !shedding || ref.float64() < admit {
					want = plan.PickU(ref.float64())
				}
				d := s.Decide()
				if d.Station != want || d.Rejected != (want < 0) {
					t.Fatalf("draw %d: station %d (rejected %v), want %d (sequence diverged)",
						i, d.Station, d.Rejected, want)
				}
				seen[want] = true
			}
			if len(seen) < 3 || seen[-1] != (tc.load > 1) {
				t.Fatalf("test premise: outcomes %v at load %g", seen, tc.load)
			}
		})
	}
}
