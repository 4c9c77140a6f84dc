// Command e2ebench is the repository's end-to-end benchmark: it runs one
// workload against an in-process bladed (serve.New behind a loopback
// net/http server, configured only through settings cmd/bladed exposes
// as flags) or, for paper-repro, against the offline reproduction
// pipeline; checks that every output is correct; and prints the
// metrics as one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload paper-static --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// traced run that reports per-layer metrics (see layers.go). The exit
// code is non-zero when any correctness check fails. BENCHMARK.json at
// the repository root names every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

var nan = math.NaN()

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its output.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span files ("" writes none)

	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	notes     []string // human-readable lines printed before the JSON
	spans     *spanLog
}

// span returns the duration of the run's measured time scaled by f.
func (r *run) span(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

func (r *run) set(name string, v float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed correctness check when err is non-nil.
func (r *run) check(what string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
}

func (r *run) count(attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
}

// workloads maps each workload name to its end-to-end run. The traced
// run of every workload is traced() in layers.go.
var workloads = map[string]func(*run) error{
	"paper-static":       runPaperStatic,
	"paper-jsq-feedback": runPaperJSQ,
	"fleet-replan":       runFleetReplan,
	"paper-repro":        runPaperRepro,
}

func main() {
	code, err := mainErr(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	os.Exit(code)
}

func mainErr(args []string) (int, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time of the run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	out := fs.String("out", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *seconds > 600 {
		return 2, fmt.Errorf("--seconds %g outside [1, 600]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out,
		metrics: map[string]metric{},
	}
	heap := startHeapSampler()
	var err error
	if r.trace {
		err = traced(r)
		heap.stop()
	} else {
		err = drive(r)
		r.set("heap_peak_mb", heap.stop()/(1<<20), "MB")
		if r.attempted > 0 {
			r.set("ok_share", float64(r.attempted-r.failed)/float64(r.attempted), "ratio")
		}
	}
	if err != nil {
		return 1, err
	}
	if r.spans != nil && r.out != "" {
		path := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.spans.write(path); err != nil {
			return 1, err
		}
		r.note("spans written to %s", path)
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	if res.Attempted < 1 {
		return 1, fmt.Errorf("no operations attempted")
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, p := range r.problems {
		fmt.Println("# CHECK FAILED:", p)
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return 1, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d correctness checks failed, %d operations failed", len(r.problems), r.failed)
	}
	return 0, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// heapSampler samples the live heap (as of the latest garbage
// collection) every 10ms over the whole run. Its peak is the 90th
// percentile of the samples: the true maximum catches whichever
// requests happened to be in flight at one collection, which moves
// from run to run more than the daemon's memory does.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var seen []float64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			seen = append(seen, float64(sample[0].Value.Uint64()))
			select {
			case <-h.stopc:
				h.done <- quantileOf(seen, 0.9).Value
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}
