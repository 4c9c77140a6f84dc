package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/serve"
	"repro/internal/spec"
)

// paperSpec is the paper's Example 1 cluster (m_i = 2i, s_i = 1.7 − 0.1i,
// 30% special preload) written as a bladed -spec document, with the
// task size r̄ scaled so that rate requests per second is the fraction
// frac of saturation. At r̄ = 1 the cluster saturates at λ′ = 47.04
// tasks/s, far below what a loopback daemon is driven at; scaling r̄
// scales every optimal rate by the same factor, so the per-station
// shares stay those of the paper's plan at frac and the daemon's
// estimator, which counts requests, measures the rate the plan was
// solved for.
func paperSpec(rate, frac float64) *spec.ClusterSpec {
	sizes := make([]int, 7)
	speeds := make([]float64, 7)
	for i := 1; i <= 7; i++ {
		sizes[i-1] = 2 * i
		speeds[i-1] = 1.7 - 0.1*float64(i)
	}
	return scaledSpec("paper-example-1", sizes, speeds, rate, frac)
}

// fleetSpec is the n-station fleet of BenchmarkOptimizeN10k*: the
// repeating (size, speed) pattern with 56 distinct classes and 30%
// special preload, scaled like paperSpec.
func fleetSpec(n int, rate, frac float64) *spec.ClusterSpec {
	sizes := make([]int, n)
	speeds := make([]float64, n)
	for i := 0; i < n; i++ {
		sizes[i] = 2 + 2*(i%8)
		speeds[i] = 1.7 - 0.1*float64(i%7)
	}
	return scaledSpec(fmt.Sprintf("fleet-%d", n), sizes, speeds, rate, frac)
}

func scaledSpec(name string, sizes []int, speeds []float64, rate, frac float64) *spec.ClusterSpec {
	const preload = 0.3
	var capacity float64 // Σ m_i s_i: saturation λ′ at r̄ = 1 is (1 − preload)·capacity
	cs := &spec.ClusterSpec{Name: name}
	for i := range sizes {
		capacity += float64(sizes[i]) * speeds[i]
		cs.Servers = append(cs.Servers, spec.ServerSpec{Size: sizes[i], Speed: speeds[i], PreloadFraction: preload})
	}
	cs.TaskSize = frac * (1 - preload) * capacity / rate
	return cs
}

// daemonFlags are the cmd/bladed flags the workloads set; everything
// else takes bladed's flag defaults in daemonConfig.
type daemonFlags struct {
	spec   *spec.ClusterSpec // -spec (the document, already generated)
	rate   float64           // -rate
	window time.Duration     // -window
	policy string            // -policy: static or jsq2
	sparse bool              // -sparse
	seed   int64             // -seed
	// breakerOff is -breaker-off.
	breakerOff bool
}

// daemonConfig maps flags to serve.Config exactly as cmd/bladed does.
// The spec goes through a JSON round trip so the cluster is parsed and
// validated by the same code path as bladed -spec.
func daemonConfig(f daemonFlags) (serve.Config, error) {
	doc, err := json.Marshal(f.spec)
	if err != nil {
		return serve.Config{}, err
	}
	cs, err := spec.Parse(bytes.NewReader(doc))
	if err != nil {
		return serve.Config{}, fmt.Errorf("parsing generated spec: %w", err)
	}
	g, err := cs.Build()
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Group:              g,
		Lambda:             f.rate,
		Opts:               core.Options{Discipline: queueing.FCFS, Sparse: f.sparse, Parallel: f.sparse},
		DriftThreshold:     0.2,
		Window:             f.window,
		MinResolveInterval: time.Second,
		MaxInFlight:        256,
		RequestTimeout:     5 * time.Second,
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
		Seed:               f.seed,
		BatchLinger:        100 * time.Microsecond,
		Guard: serve.GuardConfig{
			AttemptTimeout: time.Second,
			MaxAttempts:    3,
			RetryBudget:    0.1,
		},
		Breaker: serve.BreakerConfig{
			Disabled:       f.breakerOff,
			ErrorThreshold: 0.5,
			OpenInterval:   5 * time.Second,
			ScanInterval:   250 * time.Millisecond,
			TrialFraction:  0.05,
			RampWindow:     10 * time.Second,
		},
	}
	switch f.policy {
	case "static":
	case "jsq2":
		cfg.Policy, cfg.SampleD = serve.PolicyJSQ, 2
	default:
		return serve.Config{}, fmt.Errorf("unknown policy %q", f.policy)
	}
	return cfg, nil
}

// daemon is one in-process bladed: serve.New behind a loopback
// net/http server configured like bladed's.
type daemon struct {
	srv   *serve.Server
	group *model.Group
	rate  float64 // the planned λ′
	hs    *http.Server
	base  string
	errc  chan error
}

// startDaemon builds the server, starts listening, and returns once a
// GET /healthz has succeeded. wrap, when non-nil, wraps the handler
// (the traced run's server-span recorder).
func startDaemon(cfg serve.Config, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{
		srv:   srv,
		group: cfg.Group,
		rate:  cfg.Lambda,
		hs:    &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 60 * time.Second},
		base:  "http://" + ln.Addr().String(),
		errc:  make(chan error, 1),
	}
	go func() { d.errc <- d.hs.Serve(ln) }()
	if err := d.waitHealthy(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon never became healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server down and waits for it and the serve
// goroutines to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	return err
}

// timedSetups starts the daemon k times, timing serve.New until the
// first healthy GET /healthz, and returns the last daemon (still
// running) with every set-up time. The earlier daemons are stopped.
func timedSetups(cfg serve.Config, k int, wrap func(http.Handler) http.Handler) (*daemon, []float64, error) {
	var last *daemon
	times := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		if last != nil {
			if err := last.stop(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		d, err := startDaemon(cfg, wrap)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = d
	}
	return last, times, nil
}

// conn is one keep-alive HTTP/1.1 client connection, driven from the
// calling goroutine. net/http's client hands each request to the
// connection's writer goroutine and each response back from its reader
// goroutine; every hand-off can wake a sleeping thread, and on a small
// virtual machine those wake-ups cost as much as the daemon's own work
// and vary with the host. Writing the request and reading the response
// in the caller keeps the generator's share of a round trip small and
// steady. The benchmark's connection count is the number of conns.
type conn struct {
	addr string // host:port
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func newConn(base string) *conn { return &conn{addr: strings.TrimPrefix(base, "http://")} }

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// spanHeader carries a client span's ID to the server-span recorder in
// the traced run.
const spanHeader = "X-Bench-Span"

// requestTimeout bounds one round trip, so a hung daemon fails the run
// instead of stalling it.
const requestTimeout = 30 * time.Second

// roundTrip sends one request and returns the response with its body
// unread. span, when non-zero, is sent in spanHeader.
func (c *conn) roundTrip(method, path string, body []byte, span uint64) (*http.Response, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, err
		}
		c.nc, c.br, c.bw = nc, bufio.NewReader(nc), bufio.NewWriter(nc)
	}
	if err := c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		c.close()
		return nil, err
	}
	fmt.Fprintf(c.bw, "%s %s HTTP/1.1\r\nHost: bladed\r\nContent-Length: %d\r\n", method, path, len(body))
	if body != nil {
		c.bw.WriteString("Content-Type: application/json\r\n")
	}
	if span != 0 {
		fmt.Fprintf(c.bw, "%s: %d\r\n", spanHeader, span)
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		c.close()
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return nil, err
	}
	return resp, nil
}

// finish drains and closes a response body, dropping the connection
// when the daemon asked to close it or the body could not be read.
func (c *conn) finish(resp *http.Response, err error) error {
	if _, derr := io.Copy(io.Discard, resp.Body); err == nil {
		err = derr
	}
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return err
}

// do sends one request and reads the whole response.
func (c *conn) do(method, path string, body []byte, span uint64) (int, []byte, error) {
	resp, err := c.roundTrip(method, path, body, span)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, c.finish(resp, err)
}

// promSample is one parsed line of the Prometheus text exposition;
// labels is the raw text between the braces.
type promSample struct {
	name   string
	labels string
	value  float64
}

// scrape fetches GET /metrics and keeps the samples of the named
// families. The body is parsed as it streams in: at fleet scale the
// exposition runs to megabytes, and holding it would dominate the
// benchmark's own heap.
func (c *conn) scrape(families ...string) ([]promSample, error) {
	resp, err := c.roundTrip(http.MethodGet, "/metrics", nil, 0)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, c.finish(resp, fmt.Errorf("GET /metrics: status %d", resp.StatusCode))
	}
	ss, err := parseProm(resp.Body, families)
	return ss, c.finish(resp, err)
}

// parseProm parses the subset of the Prometheus text format bladed
// writes — `name{k="v",…} value` and `name value`, comments skipped —
// keeping only the named families.
func parseProm(r io.Reader, families []string) ([]promSample, error) {
	keep := map[string]bool{}
	for _, f := range families {
		keep[f] = true
	}
	var out []promSample
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		s := promSample{name: line[:sp]}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.name, s.labels = s.name[:i], strings.TrimSuffix(s.name[i+1:], "}")
		}
		if !keep[s.name] {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics value in %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// label returns the value of key in a raw label list.
func label(labels, key string) string {
	for _, kv := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// matches reports whether the raw label list has every pair in match.
func matches(labels string, match map[string]string) bool {
	for k, v := range match {
		if label(labels, k) != v {
			return false
		}
	}
	return true
}

// promValue returns the value of the sample with the given name whose
// labels include every pair in match (NaN when absent).
func promValue(ss []promSample, name string, match map[string]string) float64 {
	for _, s := range ss {
		if s.name == name && matches(s.labels, match) {
			return s.value
		}
	}
	return nan
}

// promByStation collects a per-station counter into a slice of n.
func promByStation(ss []promSample, name string, n int, match map[string]string) []int64 {
	out := make([]int64, n)
	for _, s := range ss {
		if s.name != name || !matches(s.labels, match) {
			continue
		}
		if i, err := strconv.Atoi(label(s.labels, "station")); err == nil && i >= 0 && i < n {
			out[i] = int64(s.value)
		}
	}
	return out
}
