package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/serve"
)

// startDaemon serves a real dispatch plan over HTTP for the generator
// to hit.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	g := model.LiExample1Group()
	srv, err := serve.New(serve.Config{
		Group:  g,
		Lambda: 0.5 * g.MaxGenericRate(),
		Opts:   core.Options{Discipline: queueing.FCFS},
		Window: time.Hour, // stay cold: no shedding during the run
		Logger: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

func TestLoadGeneratorClosedLoop(t *testing.T) {
	hs := startDaemon(t)
	var buf bytes.Buffer
	err := run([]string{"-addr", hs.URL, "-c", "4", "-d", "300ms", "-json"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, buf.String())
	}
	if rep.Requests == 0 || rep.Dispatched == 0 {
		t.Fatalf("no load generated: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d transport errors against healthy daemon: %+v", rep.Errors, rep)
	}
	if rep.Requests != rep.Dispatched+rep.Rejected+rep.Errors {
		t.Fatalf("outcome counts do not sum: %+v", rep)
	}
	if rep.AchievedQPS <= 0 || rep.LatencyP50 <= 0 {
		t.Fatalf("missing throughput/latency stats: %+v", rep)
	}
	var total int
	for _, c := range rep.ByStation {
		total += c
	}
	if int64(total) != rep.Dispatched {
		t.Fatalf("station counts sum to %d, want %d", total, rep.Dispatched)
	}
}

func TestLoadGeneratorPacedRate(t *testing.T) {
	hs := startDaemon(t)
	var buf bytes.Buffer
	// 100 QPS for 500ms ≈ 50 requests; allow generous slack for a slow
	// CI host (closed-loop pacing can only undershoot, never overshoot).
	err := run([]string{"-addr", hs.URL, "-c", "8", "-d", "500ms", "-qps", "100", "-json"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, buf.String())
	}
	if rep.Requests == 0 {
		t.Fatalf("no load generated: %+v", rep)
	}
	if rep.Requests > 60 {
		t.Fatalf("pacing failed: %d requests for a 50-request schedule", rep.Requests)
	}
}

func TestLoadGeneratorFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-c", "0"},
		{"-d", "0s"},
		{"-arrivals", "bursty", "-qps", "10"},
		{"-arrivals", "poisson"}, // Poisson arrivals need a rate
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%q): want an error", args)
		}
	}
}

// TestLoadGeneratorCountsQueueingDelay runs one worker at four times
// the rate a slow server can answer. Each request must be timed from
// its scheduled release, so the latency includes the time it waited
// behind the busy worker; timed from its send, every request would
// read as the server's 20 ms.
func TestLoadGeneratorCountsQueueingDelay(t *testing.T) {
	const delay = 20 * time.Millisecond
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(delay)
		io.WriteString(w, `{"station": 0}`)
	}))
	defer hs.Close()
	for _, arrivals := range []string{"uniform", "poisson"} {
		var buf bytes.Buffer
		err := run([]string{"-addr", hs.URL, "-c", "1", "-d", "500ms", "-qps", "200", "-arrivals", arrivals, "-json"}, &buf)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		var rep report
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatalf("bad JSON report: %v\n%s", err, buf.String())
		}
		if rep.Dispatched == 0 || rep.Errors != 0 {
			t.Fatalf("%s: %+v", arrivals, rep)
		}
		// Request n is released at about n×5 ms and answered at about
		// n×20 ms, so the mean over the ~25 requests is near 180 ms.
		if min := 4 * delay.Seconds(); rep.LatencyMean < min {
			t.Errorf("%s: mean latency %v, want at least %v: queueing behind the busy worker is missing",
				arrivals, time.Duration(rep.LatencyMean*float64(time.Second)), time.Duration(min*float64(time.Second)))
		}
		if rep.LateP99 < 2*delay.Seconds() {
			t.Errorf("%s: late p99 %gs, want the pool reported well behind its schedule", arrivals, rep.LateP99)
		}
	}
}

// TestPoissonSchedule checks the -arrivals poisson release times: the
// same seed repeats them, gaps average 1/qps, and a batch claim of k
// slots advances the schedule by k gaps.
func TestPoissonSchedule(t *testing.T) {
	start := time.Unix(0, 0)
	const qps, n = 1000.0, 20000
	a, b := newSchedule(start, qps, true, 5), newSchedule(start, qps, true, 5)
	var last time.Time
	for i := 0; i < n; i++ {
		at := a.claim(1)
		if got := b.claim(1); !got.Equal(at) {
			t.Fatalf("slot %d: %v and %v from the same seed", i, at, got)
		}
		if at.Before(last) {
			t.Fatalf("slot %d released at %v, before slot %d at %v", i, at, i-1, last)
		}
		last = at
	}
	if mean := last.Sub(start).Seconds() / n; mean < 0.95/qps || mean > 1.05/qps {
		t.Fatalf("mean gap %g s, want ≈ %g s", mean, 1/qps)
	}
	u := newSchedule(start, qps, false, 0)
	if at := u.claim(8); !at.Equal(start) {
		t.Fatalf("first uniform slot at %v, want the start", at)
	}
	if at := u.claim(1); at.Sub(start) != 8*time.Millisecond {
		t.Fatalf("slot after a batch of 8 released at +%v, want +8ms", at.Sub(start))
	}
}

func TestParseFaultAt(t *testing.T) {
	cases := []struct {
		in   string
		at   time.Duration
		body string
	}{
		{"5s:6:down", 5 * time.Second, `{"station":6,"blackhole":true}`},
		{"15s:6:up", 15 * time.Second, `{"station":6,"reset":true}`},
		{"0s:2:error=0.25", 0, `{"station":2,"error_rate":0.25}`},
		{"1m:0:latency=50ms", time.Minute, `{"station":0,"extra_latency_ms":50}`},
	}
	for _, c := range cases {
		fc, err := parseFaultAt(c.in)
		if err != nil {
			t.Errorf("parseFaultAt(%q): %v", c.in, err)
			continue
		}
		if fc.at != c.at || fc.body != c.body {
			t.Errorf("parseFaultAt(%q) = %v %q, want %v %q", c.in, fc.at, fc.body, c.at, c.body)
		}
	}
	for _, bad := range []string{
		"",
		"5s",
		"5s:6",
		"notadur:6:down",
		"-1s:6:down",
		"5s:x:down",
		"5s:-1:down",
		"5s:6:explode",
		"5s:6:error=1.5",
		"5s:6:error=x",
		"5s:6:latency=-1s",
		"5s:6:latency=large",
	} {
		if _, err := parseFaultAt(bad); err == nil {
			t.Errorf("parseFaultAt(%q) accepted", bad)
		}
	}
}
