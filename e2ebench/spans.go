package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share its client span's ID: the server span names it as Parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced run: every method is a no-op.
type spanLog struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

func (l *spanLog) record(id, parent uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// serverSpans wraps the daemon's handler to record the server span of
// every request that carries a client span ID.
func (l *spanLog) serverSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if parent != 0 {
			l.record(l.newID(), parent, "server "+r.Method+" "+r.URL.Path, t0, time.Now())
		}
	})
}

// selfTimes returns, for every client span with the given name that
// has a server child, the client span's self time in µs: its duration
// minus the part its child covers (the transport and client stack).
func (l *spanLog) selfTimes(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := map[uint64]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] = s
		}
	}
	var out []float64
	for _, s := range l.spans {
		if s.Name != name {
			continue
		}
		if c, ok := child[s.ID]; ok {
			out = append(out, float64((s.End-s.Start)-(c.End-c.Start))/1e3)
		}
	}
	return out
}

// durations returns the durations in µs of the spans with the given name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
