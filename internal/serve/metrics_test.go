package serve

import (
	"net/http"
	"testing"
	"time"
)

// TestMetricsGolden pins the /metrics exposition byte for byte: series
// order, HELP/TYPE lines, label quoting and number formatting. The
// clock is fake and latencies are never sampled across a clock step,
// so every gauge repeats; the traffic rows down every station but one
// (the way POST /v1/health pins a station, minus its background
// re-solve) and re-solve synchronously, so the per-station dispatch
// counts do not depend on which station a draw picks. Regenerate with
//
//	go test ./internal/serve -run TestMetricsGolden -update
//
// only for a deliberate exposition change.
func TestMetricsGolden(t *testing.T) {
	const survivor = 6 // the paper's largest blade: 14 cores at speed 1.0
	oneSurvivor := func(t *testing.T, s *Server, clk *fakeClock) {
		s.mu.Lock()
		for i := range s.up {
			if i != survivor {
				s.up[i] = false
				s.breakers.stations[i].pinned.Store(true)
			}
		}
		s.mu.Unlock()
		h := s.Handler()
		if w := postJSON(t, h, "/v1/plan", map[string]float64{"lambda": 4}); w.Code != http.StatusOK {
			t.Fatalf("re-solve status %d: %s", w.Code, w.Body)
		}
		// Beyond the survivor's ceiling: rejected, counted as admission.
		if w := postJSON(t, h, "/v1/plan", map[string]float64{"lambda": 100}); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("over-ceiling re-solve status %d: %s", w.Code, w.Body)
		}
		for i := 0; i < 64; i++ {
			if w := postJSON(t, h, "/v1/dispatch", nil); w.Code != http.StatusOK {
				t.Fatalf("dispatch %d status %d: %s", i, w.Code, w.Body)
			}
			clk.Advance(10 * time.Millisecond)
		}
	}
	for _, tc := range []struct {
		name  string
		drive func(t *testing.T, s *Server, clk *fakeClock)
	}{
		{name: "startup"},
		{name: "one_survivor", drive: oneSurvivor},
		{
			// Fewer outcomes than the breaker's MinVolume, a millisecond
			// apart, scraped two milliseconds after the last: the error
			// EWMA and suspicion are non-zero but nothing trips.
			name: "outcomes",
			drive: func(t *testing.T, s *Server, clk *fakeClock) {
				oneSurvivor(t, s, clk)
				for _, k := range []Outcome{OutcomeSuccess, OutcomeSuccess, OutcomeError, OutcomeSuccess, OutcomeTimeout} {
					if err := s.ReportOutcome(survivor, k, 3*time.Millisecond); err != nil {
						t.Fatal(err)
					}
					clk.Advance(time.Millisecond)
				}
				clk.Advance(time.Millisecond)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			s := newTestServer(t, func(c *Config) { c.Now = clk.Now })
			if tc.drive != nil {
				tc.drive(t, s, clk)
			}
			w := getPath(t, s.Handler(), "/metrics")
			if w.Code != http.StatusOK {
				t.Fatalf("status %d", w.Code)
			}
			checkGoldenBytes(t, w.Body.Bytes(), "metrics_"+tc.name+".golden")
		})
	}
}
