package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// connStats is one connection's client-side record. Each connection
// goroutine owns its own, so nothing on the send path is shared.
type connStats struct {
	lat, late, aux []float64 // µs, measured window only
	at, auxAt      []int64   // when each lat/late and aux sample was due (UnixNano)
	attempted      int64
	failed         int64
	dispatched     []int64         // routed decisions per station
	observed       []int64         // outcomes reported per station
	versions       map[int64]int64 // plan version → responses carrying it
	firstErr       error
}

func newConnStats(n int) *connStats {
	return &connStats{dispatched: make([]int64, n), observed: make([]int64, n), versions: map[int64]int64{}}
}

func (s *connStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// merge folds the per-connection records into one.
func merge(all []*connStats) *connStats {
	m := newConnStats(len(all[0].dispatched))
	for _, s := range all {
		m.lat = append(m.lat, s.lat...)
		m.late = append(m.late, s.late...)
		m.at = append(m.at, s.at...)
		m.aux = append(m.aux, s.aux...)
		m.auxAt = append(m.auxAt, s.auxAt...)
		m.attempted += s.attempted
		m.failed += s.failed
		for i := range s.dispatched {
			m.dispatched[i] += s.dispatched[i]
			m.observed[i] += s.observed[i]
		}
		for v, n := range s.versions {
			m.versions[v] += n
		}
		if m.firstErr == nil {
			m.firstErr = s.firstErr
		}
	}
	return m
}

// sample records one measured open-loop request: its latency and the
// generator's lateness, both from the scheduled send time.
func (s *connStats) sample(due, sent, done time.Time) {
	s.lat = append(s.lat, usSince(due, done))
	s.late = append(s.late, usSince(due, sent))
	s.at = append(s.at, due.UnixNano())
}

// reserve sizes the sample slices for a schedule of k requests, so the
// benchmark's heap does not grow with the run.
func (s *connStats) reserve(k int) {
	s.lat = make([]float64, 0, k)
	s.late = make([]float64, 0, k)
	s.aux = make([]float64, 0, k)
	s.at = make([]int64, 0, k)
	s.auxAt = make([]int64, 0, k)
}

// timeOrdered returns xs sorted by the matching times at, so the
// samples of all connections interleave as they were taken.
func timeOrdered(xs []float64, at []int64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	out := make([]float64, len(idx))
	for i, k := range idx {
		out[i] = xs[k]
	}
	return out
}

func usSince(t0, t1 time.Time) float64 { return float64(t1.Sub(t0).Nanoseconds()) / 1e3 }

// connCount is the number of client connections a phase opens: one per
// CPU, at most two (the workloads are sized for two).
func connCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func openConns(base string, k int) []*conn {
	cs := make([]*conn, k)
	for i := range cs {
		cs[i] = newConn(base)
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// dispatchResp is the part of a dispatch response the client checks.
type dispatchResp struct {
	Station     int   `json:"station"`
	PlanVersion int64 `json:"plan_version"`
}

// dispatchOnce sends POST /v1/dispatch and tallies the routed station.
// It returns the station, or -1 on failure.
func dispatchOnce(c *conn, s *connStats, spans *spanLog) int {
	s.attempted++
	id := spans.newID()
	t0 := time.Now()
	status, body, err := c.do(http.MethodPost, "/v1/dispatch", nil, id)
	spans.record(id, 0, "client POST /v1/dispatch", t0, time.Now())
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST /v1/dispatch: status %d: %s", status, body)
	}
	var r dispatchResp
	if err == nil {
		err = json.Unmarshal(body, &r)
	}
	if err == nil && (r.Station < 0 || r.Station >= len(s.dispatched)) {
		err = fmt.Errorf("POST /v1/dispatch: station %d out of range", r.Station)
	}
	if err != nil {
		s.fail(err)
		return -1
	}
	s.dispatched[r.Station]++
	s.versions[r.PlanVersion]++
	return r.Station
}

// observeLatency is the execution time every reported outcome carries.
const observeLatency = "0.001"

// observeOnce reports a successful outcome for station through
// POST /v1/observe.
func observeOnce(c *conn, s *connStats, station int, spans *spanLog) bool {
	s.attempted++
	body := []byte(`{"station":` + strconv.Itoa(station) + `,"outcome":"success","latency_seconds":` + observeLatency + `}`)
	id := spans.newID()
	t0 := time.Now()
	status, resp, err := c.do(http.MethodPost, "/v1/observe", body, id)
	spans.record(id, 0, "client POST /v1/observe", t0, time.Now())
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/observe: status %d: %s", status, resp)
	}
	if err != nil {
		s.fail(err)
		return false
	}
	s.observed[station]++
	return true
}

// feedbackLag is K of paper-jsq-feedback: each task reports the outcome
// of the decision its connection made K tasks earlier, so every
// connection keeps K decisions in flight and the daemon's depth
// counters stay near K rather than at zero.
const feedbackLag = 8

// paperTask is one task of the paper workloads: a dispatch, and with
// feedback the lagged outcome report. lagged holds the connection's
// decisions awaiting their outcome.
func paperTask(c *conn, s *connStats, lagged *[]int, due time.Time, measured, feedback bool, spans *spanLog) {
	sent := time.Now()
	st := dispatchOnce(c, s, spans)
	done := time.Now()
	if measured {
		s.sample(due, sent, done)
	}
	if !feedback {
		return
	}
	if st >= 0 {
		*lagged = append(*lagged, st)
	}
	if len(*lagged) > feedbackLag {
		old := (*lagged)[0]
		*lagged = (*lagged)[1:]
		observeOnce(c, s, old, spans)
		if measured {
			s.aux = append(s.aux, usSince(done, time.Now()))
			s.auxAt = append(s.auxAt, done.UnixNano())
		}
	}
}

// drainLagged reports every outstanding outcome, so the daemon's depth
// counters and outcome totals close exactly.
func drainLagged(c *conn, s *connStats, lagged []int, spans *spanLog) {
	for _, st := range lagged {
		observeOnce(c, s, st, spans)
	}
}

// runStreams paces each connection through its own sub-stream of the
// schedule, calling task at every due time with the time's offset
// from start, and waits for all of them.
func runStreams(start time.Time, streams [][]time.Duration, task func(ci int, due time.Time, off time.Duration)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	for ci := range streams {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			p, err := newPacer()
			if err != nil {
				errs[ci] = err
				return
			}
			defer p.close()
			for _, off := range streams[ci] {
				due := start.Add(off)
				if err := p.waitUntil(due); err != nil {
					errs[ci] = err
					return
				}
				task(ci, due, off)
			}
		}(ci)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runClosed runs task back to back on every connection until deadline
// and waits for all of them.
func runClosed(conns int, deadline time.Time, task func(ci int)) {
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				task(ci)
			}
		}(ci)
	}
	wg.Wait()
}
