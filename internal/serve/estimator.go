package serve

import (
	"math"
	randv2 "math/rand/v2"
	"sync/atomic"
	"time"
)

// countScale is the fixed-point resolution of the ring buckets: counts
// are stored as atomic.Int64 in units of one millionth of an arrival,
// so fractional Observe values (batch weights, sampled streams) survive
// aggregation. Anything finer than 1e-6 of a task per call is below the
// estimator's variance floor and is rounded away.
const countScale = 1e6

// RateEstimator measures the arrival rate of the generic task stream
// over a sliding window of fixed-width buckets — the online λ′
// estimator the daemon compares against the plan's λ′ to detect drift.
//
// The hot path is lock-free and core-scalable: observations land in one
// of GOMAXPROCS shards chosen by a cheap per-thread random draw, and
// each shard keeps its own ring of epoch-tagged atomic.Int64 buckets.
// A bucket's epoch is the bucket-width-quantized time since the first
// observation; writers rotate a slot by compare-and-swapping its epoch
// forward and zeroing the stale count. Readers (Rate, Warm) merge every
// shard at read time, including only buckets whose epoch falls inside
// the current window — no rotation bookkeeping is shared between
// shards, so Observe never takes a lock.
//
// Rotation has one bounded race: an increment that lands in the instant
// between a winner's epoch swap and its count reset is dropped. That
// can lose at most the few arrivals racing a rotation, once per bucket
// interval per slot — far below the estimator's sampling variance — and
// single-threaded use (all deterministic tests) is exact.
//
// The clock is injected so tests can drive it deterministically.
type RateEstimator struct {
	now     func() time.Time
	window  time.Duration
	bucket  time.Duration
	quantum int64        // ns; rate reads within one quantum share a cached merge
	started atomic.Int64 // UnixNano of the first observation or reading; 0 = unset
	warmed  atomic.Bool  // latched once a full window has elapsed (monotone)

	// Rate-read cache: merging every shard on every read would make the
	// reader the hot path's bottleneck, so a merged value is reused for
	// all reads within one cache quantum (a quarter bucket). The rate a
	// quarter-bucket ago is within the estimator's own resolution — the
	// ring cannot distinguish finer than a bucket — so drift and
	// admission semantics are unchanged.
	cacheStamp atomic.Int64  // quantized reading time of the cached rate; 0 = empty
	cacheBits  atomic.Uint64 // float64 bits of the cached rate

	shards []estimatorShard
	mask   uint64
}

// estimatorShard is one writer shard. The observed accumulator is the
// only mutable direct field; the trailing pad keeps neighbouring
// shards' write traffic off the same cache line.
type estimatorShard struct {
	buckets  []estimatorBucket
	observed atomic.Int64 // lifetime arrivals in countScale units
	_        [104]byte
}

// estimatorBucket is one epoch-tagged ring slot.
type estimatorBucket struct {
	epoch atomic.Int64 // bucket index since started; slot = epoch mod len
	count atomic.Int64 // arrivals in countScale units for that epoch
}

// NewRateEstimator builds a sharded estimator over the given window
// split into the given number of buckets (finer buckets react faster at
// the cost of more variance). A nil clock uses time.Now. The shard
// count is sized to GOMAXPROCS at construction.
func NewRateEstimator(window time.Duration, buckets int, now func() time.Time) *RateEstimator {
	if window <= 0 {
		window = 30 * time.Second
	}
	if buckets < 1 {
		buckets = 1
	}
	if now == nil {
		now = time.Now
	}
	// Shard count is capped so the hot path's shard pick fits its slice
	// of the per-request random word (randbits.go).
	n := hotShards(randEstShardBits)
	e := &RateEstimator{
		now:    now,
		window: window,
		bucket: window / time.Duration(buckets),
		shards: make([]estimatorShard, n),
		mask:   uint64(n - 1),
	}
	e.quantum = int64(e.bucket / 4)
	if e.quantum < 1 {
		e.quantum = 1
	}
	for i := range e.shards {
		e.shards[i].buckets = make([]estimatorBucket, buckets)
		for j := range e.shards[i].buckets {
			// A sentinel epoch no window can include keeps untouched
			// slots out of every merge.
			e.shards[i].buckets[j].epoch.Store(math.MinInt64)
		}
	}
	return e
}

// start returns the UnixNano origin of the epoch grid, initializing it
// to t on the first observation or reading (both anchor the grid).
func (e *RateEstimator) start(t time.Time) int64 {
	if s := e.started.Load(); s != 0 {
		return s
	}
	n := t.UnixNano()
	if n == 0 {
		n = 1 // a zero-epoch clock must still read as "started"
	}
	e.started.CompareAndSwap(0, n)
	return e.started.Load()
}

// epochAt quantizes t onto the bucket grid. Readings before the origin
// (cannot happen with a monotonic clock) clamp to epoch 0 rather than
// corrupting the ring.
func (e *RateEstimator) epochAt(t time.Time, startNanos int64) int64 {
	d := t.UnixNano() - startNanos
	if d <= 0 {
		return 0
	}
	return d / int64(e.bucket)
}

// Observe records n arrivals at the current clock reading. Lock-free:
// one shard pick, at most one epoch CAS, two atomic adds.
func (e *RateEstimator) Observe(n float64) { e.ObserveAt(e.now(), n) }

// ObserveAt is Observe with a caller-supplied clock reading.
func (e *RateEstimator) ObserveAt(t time.Time, n float64) {
	e.observeAtShard(t, n, randv2.Uint64())
}

// observeAtShard is the innermost write path; u supplies the shard
// pick so a caller that already holds random bits (the dispatch hot
// path draws one word per request) avoids a second generator call.
//
//bladelint:allow randbits -- e.mask is the runtime shard count minus one, capped at hotShards(randEstShardBits) so it stays inside the est slice of the layout
func (e *RateEstimator) observeAtShard(t time.Time, n float64, u uint64) {
	ep := e.epochAt(t, e.start(t))
	sh := &e.shards[u&e.mask]
	b := &sh.buckets[int(ep%int64(len(sh.buckets)))]
	for {
		old := b.epoch.Load()
		if old >= ep {
			break // current (or a newer writer already rotated past us)
		}
		if b.epoch.CompareAndSwap(old, ep) {
			b.count.Store(0) // winner clears the stale epoch's count
			break
		}
	}
	d := int64(math.Round(n * countScale))
	b.count.Add(d)
	sh.observed.Add(d)
}

// Rate returns the estimated arrivals per second over the window.
// Reads within one cache quantum (a quarter bucket) share one merged
// value; see the cache fields for why that preserves semantics.
func (e *RateEstimator) Rate() float64 { return e.RateAt(e.now()) }

// RateAt is Rate with a caller-supplied clock reading.
func (e *RateEstimator) RateAt(t time.Time) float64 {
	q := t.UnixNano()/e.quantum + 1 // +1 keeps a zero clock distinct from "empty"
	if e.cacheStamp.Load() == q {
		return math.Float64frombits(e.cacheBits.Load())
	}
	r := e.rateAt(t)
	// Bits before stamp: a reader that sees the fresh stamp gets a value
	// at least as fresh. Racing writers near a quantum boundary overwrite
	// each other with merges an instant apart — benign.
	e.cacheBits.Store(math.Float64bits(r))
	e.cacheStamp.Store(q)
	return r
}

// rateAt merges every shard's ring at the given instant, uncached.
// Before a full window has elapsed the count is divided by the elapsed
// span instead, so early readings are unbiased rather than low.
func (e *RateEstimator) rateAt(t time.Time) float64 {
	start := e.start(t)
	cur := e.epochAt(t, start)
	min := cur - int64(len(e.shards[0].buckets)) + 1
	var total int64
	for i := range e.shards {
		for j := range e.shards[i].buckets {
			b := &e.shards[i].buckets[j]
			if ep := b.epoch.Load(); ep >= min && ep <= cur {
				total += b.count.Load()
			}
		}
	}
	span := e.window
	if el := t.Sub(time.Unix(0, start)); el < span {
		span = el
	}
	if span < e.bucket {
		span = e.bucket
	}
	return float64(total) / countScale / span.Seconds()
}

// Warm reports whether a full window of observation has elapsed — the
// gate before drift decisions are trusted.
func (e *RateEstimator) Warm() bool { return e.WarmAt(e.now()) }

// WarmAt is Warm with a caller-supplied clock reading. Warmth is
// monotone under a monotone clock, so it latches: once warm, the
// answer is a single atomic load.
func (e *RateEstimator) WarmAt(t time.Time) bool {
	if e.warmed.Load() {
		return true
	}
	if t.Sub(time.Unix(0, e.start(t))) >= e.window {
		e.warmed.Store(true)
		return true
	}
	return false
}

// Observed returns the lifetime arrival count: the per-shard
// fixed-point accumulators are summed and rounded once at read, so
// fractional observations (e.g. repeated Observe(0.5)) are never
// truncated away.
func (e *RateEstimator) Observed() int64 {
	var total int64
	for i := range e.shards {
		total += e.shards[i].observed.Load()
	}
	return int64(math.Round(float64(total) / countScale))
}

// nextPow2 rounds n up to a power of two (for cheap masked indexing).
func nextPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
