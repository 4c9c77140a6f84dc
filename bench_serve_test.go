package repro

// Benchmarks for the serving hot path (DESIGN.md §11): the lock-free
// dispatch path under parallel load, the batched path, and the rungs of
// the serving ladder around them. cmd/bladebench captures them in the
// BENCH_<date>.json snapshots that the CI gates compare against.

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
)

// benchDispatchParallel drives serve.Server.Decide from GOMAXPROCS
// goroutines. GOMAXPROCS is forced to 8 for the measurement so the
// sharded state meets real cross-core (or oversubscribed) contention
// regardless of the host's core count; the server is constructed after
// the bump so its shard counts size to it.
// The estimation window is far longer than any run, keeping the
// estimator cold: no admission shedding, every iteration takes the
// full observe → rate-merge → pick → record path.
func benchDispatchParallel(b *testing.B, policy serve.Policy) {
	b.Helper()
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	g := model.LiExample1Group()
	s, err := serve.New(serve.Config{
		Group:  g,
		Lambda: 0.5 * g.MaxGenericRate(),
		Window: time.Hour,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Policy: policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d := s.Decide()
			if d.Rejected || d.Station < 0 {
				b.Errorf("unexpected decision %+v", d)
				return
			}
		}
	})
}

func BenchmarkDispatchParallel(b *testing.B) {
	benchDispatchParallel(b, serve.PolicyStatic)
}

// BenchmarkDispatchParallelJSQ2 pins the sampled state-aware policy to
// the same contention harness: two depth loads plus a depth increment
// per decision on top of the static path. CI gates it at 0 allocs/op
// and within 1.25× of the static pick.
func BenchmarkDispatchParallelJSQ2(b *testing.B) {
	benchDispatchParallel(b, serve.PolicyJSQ)
}

// benchDispatchBatch drives serve.Server.DecideBatch with k decisions
// per call from GOMAXPROCS goroutines, reporting ns PER DECISION (one
// benchmark iteration = one decision, k iterations per DecideBatch) so
// the numbers read directly against benchDispatchParallel. The
// amortization claim in DESIGN.md §16 — one estimator bump, one plan
// load, one RNG reservation per batch — is gated in CI: per-decision
// time at k=8 must beat the single-shot path by ≥1.5× with 0 allocs/op.
func benchDispatchBatch(b *testing.B, k int, policy serve.Policy) {
	b.Helper()
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	g := model.LiExample1Group()
	s, err := serve.New(serve.Config{
		Group:  g,
		Lambda: 0.5 * g.MaxGenericRate(),
		Window: time.Hour,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Policy: policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst [16]serve.Decision
		for pb.Next() {
			// Claim k iterations per batch: the first Next() above plus
			// k-1 more, so b.N counts decisions, not batches.
			n := 1
			for n < k && pb.Next() {
				n++
			}
			s.DecideBatch(dst[:n])
			for i := range dst[:n] {
				if dst[i].Rejected || dst[i].Station < 0 {
					b.Errorf("unexpected decision %+v", dst[i])
					return
				}
			}
		}
	})
}

func BenchmarkDispatchBatch1(b *testing.B)  { benchDispatchBatch(b, 1, serve.PolicyStatic) }
func BenchmarkDispatchBatch4(b *testing.B)  { benchDispatchBatch(b, 4, serve.PolicyStatic) }
func BenchmarkDispatchBatch8(b *testing.B)  { benchDispatchBatch(b, 8, serve.PolicyStatic) }
func BenchmarkDispatchBatch16(b *testing.B) { benchDispatchBatch(b, 16, serve.PolicyStatic) }

// BenchmarkDispatchBatchJSQ2 batches the sampled state-aware policy:
// candidate depths snapshot once per batch (staleness bounded by the
// batch length) and the chosen stations' depth increments land as one
// add per distinct station.
func BenchmarkDispatchBatchJSQ2(b *testing.B) { benchDispatchBatch(b, 8, serve.PolicyJSQ) }

// BenchmarkServePlanGetN10k is an in-process GET /v1/plan through
// Server.Handler() on the N10k benchmark fleet: routing, the request
// timeout wrapper and encoding the ~500 KB plan body, the response
// half of a fleet re-plan. CI gates it with an absolute budget well
// under what reflective encoding/json takes for the same body.
func BenchmarkServePlanGetN10k(b *testing.B) {
	g := benchFleet(b, 10000)
	s, err := serve.New(serve.Config{
		Group:  g,
		Lambda: 0.5 * g.MaxGenericRate(),
		Opts:   core.Options{Sparse: true},
		Window: time.Hour,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/plan", nil)
	w := &discardResponse{header: make(http.Header)}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.status, w.bytes = 0, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.bytes == 0 {
			b.Fatalf("GET /v1/plan: status %d, %d bytes", w.status, w.bytes)
		}
	}
}

// benchEnvelopeServer is the paper's Example 1 at half saturation with
// an hour-long estimation window, so the estimator stays cold and no
// request is shed: every request takes the full routing path.
func benchEnvelopeServer(b *testing.B, deterministicRNG bool) *serve.Server {
	b.Helper()
	g := model.LiExample1Group()
	s, err := serve.New(serve.Config{
		Group:            g,
		Lambda:           0.5 * g.MaxGenericRate(),
		Window:           time.Hour,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		DeterministicRNG: deterministicRNG,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkServeDecide is the bottom rung of the serving ladder:
// Server.Decide on one goroutine, the routing decision with no HTTP
// around it, so it reads directly against BenchmarkServeHandler/dispatch
// (BenchmarkDispatchParallel is the same call under GOMAXPROCS-8
// contention). The deterministic case draws every word from the one
// seeded DeterministicRNG stream.
func BenchmarkServeDecide(b *testing.B) {
	for _, bc := range []struct {
		name          string
		deterministic bool
	}{{"default", false}, {"deterministic", true}} {
		b.Run(bc.name, func(b *testing.B) {
			s := benchEnvelopeServer(b, bc.deterministic)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := s.Decide(); d.Rejected || d.Station < 0 {
					b.Fatalf("unexpected decision %+v", d)
				}
			}
		})
	}
}

// BenchmarkServeHandler is the in-process rung of the serving ladder:
// one request through Server.Handler().ServeHTTP on a single
// goroutine, with a reused request, a replayed body and a discarding
// ResponseWriter, so ns/op and allocs/op are the daemon's own HTTP
// envelope around Decide (routing, in-flight bound, body read and
// decode, response encoding). BenchmarkDispatchParallel is the rung
// below it, BenchmarkServeLoopback the one above.
func BenchmarkServeHandler(b *testing.B) {
	for _, bc := range []struct {
		name, path, body string
		want             int
	}{
		{"dispatch", "/v1/dispatch", "", http.StatusOK},
		{"batch8", "/v1/dispatch/batch", `{"count":8}`, http.StatusOK},
		{"observe", "/v1/observe", `{"station":0,"outcome":"success","latency_seconds":0.001}`, http.StatusAccepted},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := benchEnvelopeServer(b, false).Handler()
			body := &replayBody{b: []byte(bc.body)}
			req := httptest.NewRequest(http.MethodPost, bc.path, nil)
			req.Body, req.ContentLength = body, int64(len(bc.body))
			w := &discardResponse{header: make(http.Header)}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.off = 0
				clear(w.header)
				w.status, w.bytes = 0, 0
				h.ServeHTTP(w, req)
				if w.status != bc.want {
					b.Fatalf("POST %s: status %d, want %d", bc.path, w.status, bc.want)
				}
			}
		})
	}
}

// BenchmarkServeLoopback is the loopback rung: POST /v1/dispatch from a
// keep-alive net/http client to the daemon's handler behind
// httptest.NewServer, so ns/op adds both sides of the HTTP/1.1
// transport over the loopback interface to BenchmarkServeHandler.
func BenchmarkServeLoopback(b *testing.B) {
	srv := httptest.NewServer(benchEnvelopeServer(b, false).Handler())
	defer srv.Close()
	client := srv.Client()
	url := srv.URL + "/v1/dispatch"

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/json", nil)
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /v1/dispatch: status %d, read error %v", resp.StatusCode, err)
		}
	}
}

// replayBody is a request body that rewinds by resetting off, so a
// benchmark can send one request repeatedly without allocating.
type replayBody struct {
	b   []byte
	off int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *replayBody) Close() error { return nil }

// discardResponse is a ResponseWriter that keeps only the status and
// the body length, so the benchmark times the handler, not a recorder
// growing a copy of the body.
type discardResponse struct {
	header http.Header
	status int
	bytes  int
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.status = code }
func (d *discardResponse) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.bytes += len(p)
	return len(p), nil
}
