// Command bladeload is a closed-loop HTTP load generator for the
// bladed serving daemon: a fixed pool of workers each keeps exactly one
// POST /v1/dispatch in flight, optionally paced to a target request
// rate, and the run ends with achieved throughput, outcome counts, the
// station routing distribution, and client-side latency quantiles.
//
// Closed-loop means offered load adapts to the server: a slow server is
// probed at whatever rate the workers can sustain rather than being
// buried under an open-loop backlog. With -qps the workers pace
// themselves to a global schedule, turning the pool into a rate-capped
// closed loop (the offered rate never exceeds -qps, and also never
// exceeds what concurrency × latency allows). -arrivals picks the
// schedule: uniform (request n at n/qps) or poisson (exponential gaps
// with mean 1/qps from -seed, the arrival process the paper assumes).
//
// Under -qps each request's latency runs from its scheduled release
// time, not from when a worker got round to sending it: when the
// server is slow and every worker is busy, the wait of the requests
// queued behind them counts, instead of being hidden by the pacing
// (coordinated omission).
//
// Usage:
//
//	bladeload -addr http://localhost:8080 -c 64 -d 30s
//	bladeload -addr http://localhost:8080 -qps 500 -d 10s -json
//	bladeload -addr http://localhost:8080 -qps 500 -arrivals poisson -seed 3
//	bladeload -addr http://localhost:8080 -batch 8 -d 10s
//
// With -batch N each worker posts {"count": N} to /v1/dispatch/batch
// instead of N single-shot dispatches, exercising the daemon's batched
// hot path; -qps pacing still counts individual decisions (each batch
// claims N slots of the global schedule).
//
// Chaos scripting: repeated -fault-at flags post fault commands to the
// daemon's /v1/faults hook mid-run (bladed must run with -fault-admin),
// so one invocation drives a full kill/recover scenario:
//
//	bladeload -addr http://localhost:8080 -d 30s \
//	    -fault-at 5s:6:down -fault-at 15s:6:up
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	randv2 "math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bladeload:", err)
		os.Exit(1)
	}
}

// report is the end-of-run summary, printable as text or JSON.
type report struct {
	Duration    float64 `json:"duration_seconds"`
	Requests    int64   `json:"requests"`
	Dispatched  int64   `json:"dispatched"`
	Rejected    int64   `json:"rejected"`
	Errors      int64   `json:"errors"`
	AchievedQPS float64 `json:"achieved_qps"`
	LatencyMean float64 `json:"latency_mean_seconds"`
	LatencyP50  float64 `json:"latency_p50_seconds"`
	LatencyP95  float64 `json:"latency_p95_seconds"`
	LatencyP99  float64 `json:"latency_p99_seconds"`
	// LateP50 and LateP99 are how far behind its schedule the pool sent
	// paced requests; the latency quantiles include this wait.
	LateP50   float64        `json:"late_p50_seconds,omitempty"`
	LateP99   float64        `json:"late_p99_seconds,omitempty"`
	ByStation map[string]int `json:"by_station,omitempty"`
}

// worker accumulates one goroutine's measurements locally — no shared
// state on the request path — and is merged into the report at the end
// (the same shard-then-merge shape the daemon's own metrics use).
type worker struct {
	dispatched, rejected, errors int64
	latency                      metrics.Welford
	q50, q95, q99                *metrics.P2Quantile
	late50, late99               *metrics.P2Quantile
	byStation                    map[int]int
}

// dispatchResponse is the subset of bladed's dispatch body we decode.
type dispatchResponse struct {
	Station int `json:"station"`
}

// batchResponse is the subset of bladed's batch-dispatch body we decode.
type batchResponse struct {
	Stations []int `json:"stations"`
	Rejected int   `json:"rejected"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bladeload", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the bladed daemon")
	concurrency := fs.Int("c", 32, "worker pool size (in-flight requests)")
	duration := fs.Duration("d", 10*time.Second, "run length")
	qps := fs.Float64("qps", 0, "target request rate; 0 runs the closed loop unthrottled")
	arrivals := fs.String("arrivals", "uniform", "release schedule under -qps: uniform or poisson")
	seed := fs.Uint64("seed", 1, "seed of the -arrivals poisson schedule")
	batch := fs.Int("batch", 0, "decisions per POST /v1/dispatch/batch request; 0 uses the single-shot endpoint")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	var faults []faultCmd
	fs.Func("fault-at",
		"inject a fault mid-run: OFFSET:STATION:DIRECTIVE where directive is down, up, error=P or latency=DUR; repeatable",
		func(v string) error {
			fc, err := parseFaultAt(v)
			if err != nil {
				return err
			}
			faults = append(faults, fc)
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 {
		return fmt.Errorf("-c %d must be at least 1", *concurrency)
	}
	if *duration <= 0 {
		return fmt.Errorf("-d %s must be positive", *duration)
	}
	if *batch < 0 {
		return fmt.Errorf("-batch %d must be non-negative", *batch)
	}
	if *arrivals != "uniform" && *arrivals != "poisson" {
		return fmt.Errorf("-arrivals %q: want uniform or poisson", *arrivals)
	}
	if *arrivals == "poisson" && !(*qps > 0) {
		return fmt.Errorf("-arrivals poisson needs a positive -qps")
	}
	target := strings.TrimRight(*addr, "/") + "/v1/dispatch"
	if *batch > 0 {
		target += "/batch"
	}

	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency,
			MaxIdleConnsPerHost: *concurrency,
		},
	}

	workers := make([]*worker, *concurrency)
	for i := range workers {
		w := &worker{byStation: make(map[int]int)}
		w.q50, _ = metrics.NewP2Quantile(0.5)
		w.q95, _ = metrics.NewP2Quantile(0.95)
		w.q99, _ = metrics.NewP2Quantile(0.99)
		w.late50, _ = metrics.NewP2Quantile(0.5)
		w.late99, _ = metrics.NewP2Quantile(0.99)
		workers[i] = w
	}

	start := time.Now()
	deadline := start.Add(*duration)
	var sched *schedule
	if *qps > 0 {
		sched = newSchedule(start, *qps, *arrivals == "poisson", *seed)
	}

	// The chaos script runs beside the workers: each -fault-at command
	// fires at its offset against the daemon's fault-injection hook.
	faultTarget := strings.TrimRight(*addr, "/") + "/v1/faults"
	var faultWg sync.WaitGroup
	for _, fc := range faults {
		faultWg.Add(1)
		go func(fc faultCmd) {
			defer faultWg.Done()
			if d := time.Until(start.Add(fc.at)); d > 0 {
				time.Sleep(d)
			}
			resp, err := client.Post(faultTarget, "application/json", strings.NewReader(fc.body))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bladeload: fault-at %s: %v\n", fc.at, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				fmt.Fprintf(os.Stderr, "bladeload: fault-at %s: daemon answered %s (is bladed running with -fault-admin?)\n",
					fc.at, resp.Status)
			}
		}(fc)
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				t0 := now
				if sched != nil {
					// A batch claims one pacing slot per decision it
					// carries, so -qps bounds the decision rate in both
					// modes.
					at := sched.claim(max(*batch, 1))
					if at.After(deadline) {
						return
					}
					if d := time.Until(at); d > 0 {
						time.Sleep(d)
					}
					late := time.Since(at).Seconds()
					w.late50.Add(late)
					w.late99.Add(late)
					t0 = at
				}
				if *batch > 0 {
					w.doBatch(client, target, *batch, t0)
				} else {
					w.do(client, target, t0)
				}
			}
		}(w)
	}
	wg.Wait()
	faultWg.Wait()
	elapsed := time.Since(start)

	rep := summarize(workers, elapsed)
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printReport(out, rep)
	return nil
}

// schedule hands out the release times of paced requests: slots
// 1/qps apart (uniform), or separated by exponential gaps of mean
// 1/qps drawn from a seeded generator (Poisson arrivals).
type schedule struct {
	start time.Time
	qps   float64
	mu    sync.Mutex
	rng   *randv2.Rand // nil for the uniform schedule
	next  float64      // release of the next slot, seconds after start
}

func newSchedule(start time.Time, qps float64, poisson bool, seed uint64) *schedule {
	s := &schedule{start: start, qps: qps}
	if poisson {
		s.rng = randv2.New(randv2.NewPCG(seed, 0))
		s.next = s.gap()
	}
	return s
}

func (s *schedule) gap() float64 {
	if s.rng == nil {
		return 1 / s.qps
	}
	return s.rng.ExpFloat64() / s.qps
}

// claim reserves k consecutive slots and returns the release time of
// the first.
func (s *schedule) claim(k int) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.next
	for i := 0; i < k; i++ {
		s.next += s.gap()
	}
	return s.start.Add(time.Duration(at * float64(time.Second)))
}

// do issues one dispatch request and records its outcome and its
// latency from t0, the request's release time.
func (w *worker) do(client *http.Client, target string, t0 time.Time) {
	resp, err := client.Post(target, "application/json", nil)
	if err != nil {
		w.errors++
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sec := time.Since(t0).Seconds()
	switch {
	case err != nil:
		w.errors++
		return
	case resp.StatusCode == http.StatusOK:
		w.dispatched++
		var dr dispatchResponse
		if json.Unmarshal(body, &dr) == nil {
			w.byStation[dr.Station]++
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		w.rejected++
	default:
		w.errors++
		return
	}
	// Latency counts for completed exchanges (dispatched or shed);
	// transport errors are excluded so a flapping server does not
	// pollute the quantiles with client timeouts.
	w.latency.Add(sec)
	w.q50.Add(sec)
	w.q95.Add(sec)
	w.q99.Add(sec)
}

// doBatch issues one batched dispatch carrying k decisions and records
// every routed station. Latency is sampled once per exchange, from the
// release time t0 — it is the round trip of the batch, directly
// comparable against the single-shot mode's per-request round trip.
func (w *worker) doBatch(client *http.Client, target string, k int, t0 time.Time) {
	resp, err := client.Post(target, "application/json",
		strings.NewReader(fmt.Sprintf(`{"count":%d}`, k)))
	if err != nil {
		w.errors++
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sec := time.Since(t0).Seconds()
	switch {
	case err != nil:
		w.errors++
		return
	case resp.StatusCode == http.StatusOK:
		var br batchResponse
		if json.Unmarshal(body, &br) != nil {
			w.errors++
			return
		}
		w.dispatched += int64(len(br.Stations))
		w.rejected += int64(br.Rejected)
		for _, s := range br.Stations {
			w.byStation[s]++
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		w.rejected += int64(k)
	default:
		w.errors++
		return
	}
	w.latency.Add(sec)
	w.q50.Add(sec)
	w.q95.Add(sec)
	w.q99.Add(sec)
}

// summarize merges the per-worker accumulators: Welford moments merge
// exactly, quantiles through the P² mixture merge (see
// metrics.MergeP2Quantiles for the error bound).
func summarize(workers []*worker, elapsed time.Duration) report {
	rep := report{Duration: elapsed.Seconds(), ByStation: make(map[string]int)}
	var lat metrics.Welford
	var q50s, q95s, q99s, late50s, late99s []*metrics.P2Quantile
	stations := make(map[int]int)
	for _, w := range workers {
		rep.Dispatched += w.dispatched
		rep.Rejected += w.rejected
		rep.Errors += w.errors
		lat.Merge(&w.latency)
		q50s = append(q50s, w.q50)
		q95s = append(q95s, w.q95)
		q99s = append(q99s, w.q99)
		late50s = append(late50s, w.late50)
		late99s = append(late99s, w.late99)
		for s, c := range w.byStation {
			stations[s] += c
		}
	}
	rep.Requests = rep.Dispatched + rep.Rejected + rep.Errors
	if rep.Duration > 0 {
		rep.AchievedQPS = float64(rep.Requests) / rep.Duration
	}
	rep.LatencyMean = lat.Mean()
	rep.LatencyP50 = metrics.MergeP2Quantiles(q50s...)
	rep.LatencyP95 = metrics.MergeP2Quantiles(q95s...)
	rep.LatencyP99 = metrics.MergeP2Quantiles(q99s...)
	rep.LateP50 = metrics.MergeP2Quantiles(late50s...)
	rep.LateP99 = metrics.MergeP2Quantiles(late99s...)
	for s, c := range stations {
		rep.ByStation[fmt.Sprint(s)] = c
	}
	return rep
}

func printReport(out io.Writer, rep report) {
	fmt.Fprintf(out, "duration      %.2fs\n", rep.Duration)
	fmt.Fprintf(out, "requests      %d (%.1f req/s achieved)\n", rep.Requests, rep.AchievedQPS)
	fmt.Fprintf(out, "dispatched    %d\n", rep.Dispatched)
	fmt.Fprintf(out, "rejected      %d\n", rep.Rejected)
	fmt.Fprintf(out, "errors        %d\n", rep.Errors)
	fmt.Fprintf(out, "latency mean  %s\n", fmtSeconds(rep.LatencyMean))
	fmt.Fprintf(out, "latency p50   %s\n", fmtSeconds(rep.LatencyP50))
	fmt.Fprintf(out, "latency p95   %s\n", fmtSeconds(rep.LatencyP95))
	fmt.Fprintf(out, "latency p99   %s\n", fmtSeconds(rep.LatencyP99))
	if rep.LateP99 > 0 {
		fmt.Fprintf(out, "late p50      %s\n", fmtSeconds(rep.LateP50))
		fmt.Fprintf(out, "late p99      %s\n", fmtSeconds(rep.LateP99))
	}
	if len(rep.ByStation) > 0 {
		keys := make([]string, 0, len(rep.ByStation))
		for k := range rep.ByStation {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(out, "stations     ")
		for _, k := range keys {
			fmt.Fprintf(out, " %s:%d", k, rep.ByStation[k])
		}
		fmt.Fprintln(out)
	}
}

// fmtSeconds renders a latency in the natural unit for its magnitude.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// faultCmd is one parsed -fault-at command: at the offset, POST body
// to the daemon's /v1/faults hook.
type faultCmd struct {
	at   time.Duration
	body string
}

// parseFaultAt parses OFFSET:STATION:DIRECTIVE. Directives map onto
// the fault hook's JSON: down (blackhole), up (reset), error=P
// (injected error rate), latency=DUR (added service time).
func parseFaultAt(v string) (faultCmd, error) {
	offsetStr, rest, ok := strings.Cut(v, ":")
	if !ok {
		return faultCmd{}, fmt.Errorf("fault-at %q: want OFFSET:STATION:DIRECTIVE", v)
	}
	stationStr, directive, ok := strings.Cut(rest, ":")
	if !ok {
		return faultCmd{}, fmt.Errorf("fault-at %q: want OFFSET:STATION:DIRECTIVE", v)
	}
	at, err := time.ParseDuration(offsetStr)
	if err != nil || at < 0 {
		return faultCmd{}, fmt.Errorf("fault-at %q: bad offset %q", v, offsetStr)
	}
	station, err := strconv.Atoi(stationStr)
	if err != nil || station < 0 {
		return faultCmd{}, fmt.Errorf("fault-at %q: bad station %q", v, stationStr)
	}
	var body string
	key, val, _ := strings.Cut(directive, "=")
	switch key {
	case "down":
		body = fmt.Sprintf(`{"station":%d,"blackhole":true}`, station)
	case "up":
		body = fmt.Sprintf(`{"station":%d,"reset":true}`, station)
	case "error":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return faultCmd{}, fmt.Errorf("fault-at %q: error rate %q outside [0, 1]", v, val)
		}
		body = fmt.Sprintf(`{"station":%d,"error_rate":%g}`, station, p)
	case "latency":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return faultCmd{}, fmt.Errorf("fault-at %q: bad latency %q", v, val)
		}
		body = fmt.Sprintf(`{"station":%d,"extra_latency_ms":%g}`, station, float64(d)/float64(time.Millisecond))
	default:
		return faultCmd{}, fmt.Errorf("fault-at %q: unknown directive %q (want down, up, error=P or latency=DUR)", v, directive)
	}
	return faultCmd{at: at, body: body}, nil
}
