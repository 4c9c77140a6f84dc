package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRoutingGolden pins the 2xx bodies of the routing endpoints byte
// for byte, with their status and Content-Type: field order, omitempty,
// string escaping and the trailing newline. Every server uses
// DeterministicRNG, so the routed stations repeat. Regenerate with
//
//	go test ./internal/serve -run TestRoutingGolden -update
//
// only for a deliberate wire-format change.
func TestRoutingGolden(t *testing.T) {
	names := make([]string, 7)
	for i := range names {
		names[i] = fmt.Sprintf("rack-%d <a&b> \"é\"", i)
	}
	deterministic := func(more func(*Config)) func(*Config) {
		return func(c *Config) {
			c.DeterministicRNG = true
			c.Seed = 7
			if more != nil {
				more(c)
			}
		}
	}
	for _, tc := range []struct {
		name, path, body string
		mutate           func(*Config)
		code             int
		check            func(t *testing.T, body []byte)
	}{
		{name: "dispatch", path: "/v1/dispatch", code: http.StatusOK},
		{
			name: "dispatch_named", path: "/v1/dispatch", code: http.StatusOK,
			mutate: func(c *Config) { c.Names = names },
		},
		{
			// The first attempt parks until the hedge wins and cancels
			// it: attempts and hedged are both present.
			name: "dispatch_backend_hedged", path: "/v1/dispatch", code: http.StatusOK,
			mutate: func(c *Config) {
				c.Guard.Hedge = true
				c.Guard.HedgeMinDelay = 5 * time.Millisecond
				c.Guard.AttemptTimeout = 5 * time.Second
				var calls atomic.Int64
				c.Backend = func(ctx context.Context, _ int) error {
					if calls.Add(1) == 1 {
						<-ctx.Done()
						return ctx.Err()
					}
					return nil
				}
			},
			check: func(t *testing.T, body []byte) {
				if !strings.Contains(string(body), `"hedged": true`) {
					t.Fatalf("test premise: dispatch was not hedged: %s", body)
				}
			},
		},
		{name: "batch", path: "/v1/dispatch/batch", body: `{"count": 8}`, code: http.StatusOK},
		{
			// 1.2× the saturation rate: the startup plan sheds a share
			// of every batch.
			name: "batch_rejected", path: "/v1/dispatch/batch", body: `{"count": 16}`, code: http.StatusOK,
			mutate: func(c *Config) { c.Lambda = 1.2 * c.Group.MaxGenericRate() },
			check: func(t *testing.T, body []byte) {
				var resp BatchDispatchResponse
				if err := json.Unmarshal(body, &resp); err != nil || resp.Rejected == 0 || len(resp.Stations) == 0 {
					t.Fatalf("test premise: want both routed and rejected decisions, got %s (err %v)", body, err)
				}
			},
		},
		{
			name: "observe", path: "/v1/observe", code: http.StatusAccepted,
			body: `{"station": 2, "outcome": "success", "latency_seconds": 0.01}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, deterministic(tc.mutate))
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			if w.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.code, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			if tc.check != nil {
				tc.check(t, w.Body.Bytes())
			}
			checkGoldenBytes(t, w.Body.Bytes(), tc.name+".golden")
		})
	}
}

// TestRoutingTable pins the HTTP surface around the handlers: a wrong
// method on each route is 405 with an Allow header, an unknown /v1
// path is 404, and the in-flight bound covers every /v1 route but not
// the probes.
func TestRoutingTable(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 2 })
	h := s.Handler()
	serve := func(method, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, nil))
		return w
	}
	for _, tc := range []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/dispatch", "POST"},
		{http.MethodGet, "/v1/dispatch/batch", "POST"},
		{http.MethodPut, "/v1/plan", "GET, HEAD, POST"},
		{http.MethodDelete, "/v1/health", "GET, HEAD, POST"},
		{http.MethodGet, "/v1/observe", "POST"},
		{http.MethodPost, "/metrics", "GET, HEAD"},
		{http.MethodPost, "/healthz", "GET, HEAD"},
	} {
		w := serve(tc.method, tc.path)
		if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s: status %d Allow %q, want 405 %q", tc.method, tc.path, w.Code, w.Header().Get("Allow"), tc.allow)
		}
	}
	for _, path := range []string{"/v1/x", "/v1/dispatch/x", "/v1/plans"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			if w := serve(method, path); w.Code != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", method, path, w.Code)
			}
		}
	}

	for i := 0; i < cap(s.inflight); i++ {
		s.inflight <- struct{}{}
	}
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/metrics"}, {http.MethodGet, "/healthz"}, {http.MethodGet, "/debug/pprof/"},
	} {
		if w := serve(r.method, r.path); w.Code != http.StatusOK {
			t.Errorf("%s %s with the in-flight bound full: status %d, want 200", r.method, r.path, w.Code)
		}
	}
	bounded := []struct{ method, path string }{
		{http.MethodPost, "/v1/dispatch"}, {http.MethodPost, "/v1/dispatch/batch"},
		{http.MethodGet, "/v1/plan"}, {http.MethodPost, "/v1/plan"},
		{http.MethodGet, "/v1/health"}, {http.MethodPost, "/v1/health"},
		{http.MethodPost, "/v1/observe"},
	}
	for _, r := range bounded {
		w := serve(r.method, r.path)
		if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "too many in-flight requests") {
			t.Errorf("%s %s with the in-flight bound full: %d %s, want 503", r.method, r.path, w.Code, w.Body)
		}
	}
	for i := 0; i < cap(s.inflight); i++ {
		<-s.inflight
	}
	if w := serve(http.MethodPost, "/v1/dispatch"); w.Code != http.StatusOK {
		t.Fatalf("dispatch after the bound drained: status %d", w.Code)
	}
}

// TestBackendDispatchTimeout checks that RequestTimeout bounds a
// backend dispatch even when the attempt timeout is longer: a backend
// that never answers yields 503 "request timed out" after about
// RequestTimeout.
func TestBackendDispatchTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	s := newTestServer(t, func(c *Config) {
		c.RequestTimeout = timeout
		c.Guard.AttemptTimeout = 10 * time.Second
		c.Backend = func(ctx context.Context, _ int) error {
			<-ctx.Done()
			return ctx.Err()
		}
	})
	t0 := time.Now()
	w := postJSON(t, s.Handler(), "/v1/dispatch", nil)
	elapsed := time.Since(t0)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body)
	}
	var body struct{ Error string }
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error != "request timed out" {
		t.Fatalf("body %q (err %v), want a request timed out error", w.Body, err)
	}
	if elapsed < timeout || elapsed > timeout+2*time.Second {
		t.Fatalf("answered after %v, want about %v", elapsed, timeout)
	}
}

// stallBody opens a connection to srv and sends the headers of a POST
// to path that announces a 100-byte body, then only its first byte.
// The caller closes the connection, before srv: httptest.Server.Close
// waits for requests still in flight.
func stallBody(t *testing.T, srv *httptest.Server, path string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: bladed\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{", path); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestStalledBodyFreesInFlightSlot checks that a client which stalls
// mid-body holds its in-flight slot for at most about RequestTimeout:
// with MaxInFlight = 1, the next dispatch is refused while the stall
// lasts and served once the bound has cut it off.
func TestStalledBodyFreesInFlightSlot(t *testing.T) {
	// Long enough that the refused dispatch below cannot race the cut.
	const timeout = 500 * time.Millisecond
	for _, path := range []string{"/v1/observe", "/v1/dispatch/batch"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			s := newTestServer(t, func(c *Config) {
				c.MaxInFlight = 1
				c.RequestTimeout = timeout
			})
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			client := srv.Client()
			dispatch := func() int {
				resp, err := client.Post(srv.URL+"/v1/dispatch", "application/json", nil)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp.StatusCode
			}

			t0 := time.Now()
			conn := stallBody(t, srv, path)
			defer conn.Close()
			for len(s.inflight) == 0 {
				if time.Since(t0) > timeout {
					t.Fatal("stalled request never took the in-flight slot")
				}
				time.Sleep(time.Millisecond)
			}
			if code := dispatch(); code != http.StatusServiceUnavailable {
				t.Fatalf("dispatch beside the stalled request: status %d, want 503", code)
			}
			for code := dispatch(); code != http.StatusOK; code = dispatch() {
				if time.Since(t0) > timeout+2*time.Second {
					t.Fatalf("in-flight slot still held %v after the stall began (status %d)", time.Since(t0), code)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestStalledBodyGetsTimeoutResponse checks that a client which
// announces a body and then stalls receives 503 "request timed out"
// after about RequestTimeout, on a connection the daemon then closes,
// instead of waiting on net/http's drain of the unread body.
func TestStalledBodyGetsTimeoutResponse(t *testing.T) {
	const timeout = 300 * time.Millisecond
	for _, path := range []string{"/v1/observe", "/v1/dispatch/batch"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			s := newTestServer(t, func(c *Config) { c.RequestTimeout = timeout })
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			t0 := time.Now()
			conn := stallBody(t, srv, path)
			defer conn.Close()
			if err := conn.SetReadDeadline(t0.Add(timeout + 3*time.Second)); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("no response %v after the body stalled: %v", time.Since(t0), err)
			}
			defer resp.Body.Close()
			elapsed := time.Since(t0)
			var body struct{ Error string }
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable || body.Error != "request timed out" || !resp.Close {
				t.Fatalf("status %d error %q close %v, want 503 request timed out on a closing connection",
					resp.StatusCode, body.Error, resp.Close)
			}
			if elapsed < timeout {
				t.Fatalf("answered after %v, before the %v timeout", elapsed, timeout)
			}
		})
	}
}
