package serve

import (
	randv2 "math/rand/v2"
	"sync/atomic"
)

// shardedRNG is the dispatch hot path's one random source: GOMAXPROCS
// SplitMix64 states seeded from cfg.Seed. A draw picks a shard with a
// cheap per-thread random index and advances that shard's state with
// one atomic add. The SplitMix64 increment is odd, so a shard's state
// walks a full-period sequence even when concurrent draws interleave
// on it — interleaving permutes who gets which output, never the
// stream's statistical quality.
//
// Under Config.DeterministicRNG the generator has ONE shard and the
// per-request word comes from that shard too (word), so every variate
// a decision consumes is the next output of one seeded stream, whose
// state starts at the first SplitMix64 output of the seed. Draw order
// per decision, one stream output each: the request word u; the
// admission coin, while admission sheds; the static pick variate, or
// JSQ(d > 2)'s dedicated sample word; the redirect redraw, if the
// pick's breaker rejects it (DESIGN.md §16). Same seed and one
// goroutine give the same sequence, and a draw is still one atomic
// add.
type shardedRNG struct {
	shards        []rngShard
	mask          uint64
	deterministic bool
}

// rngShard pads each state word to its own cache line so concurrent
// draws on different shards never false-share.
type rngShard struct {
	state atomic.Uint64
	_     [120]byte
}

// splitmixGamma is Weyl-sequence increment of SplitMix64 (the odd
// integer nearest 2^64/φ).
const splitmixGamma = 0x9E3779B97F4A7C15

// newShardedRNG builds the generator; deterministic selects the
// single-stream form Config.DeterministicRNG asks for.
func newShardedRNG(seed int64, deterministic bool) *shardedRNG {
	n := 1
	if !deterministic {
		n = hotShards(randPickShardBits)
	}
	r := &shardedRNG{shards: make([]rngShard, n), mask: uint64(n - 1), deterministic: deterministic}
	s := uint64(seed)
	for i := range r.shards {
		// Each shard starts at a mixed, well-separated point of the
		// seed's Weyl sequence.
		s += splitmixGamma
		r.shards[i].state.Store(splitmix64(s))
	}
	return r
}

// word returns a full random word: the per-request word u of the
// randbits.go layout, or a dedicated word when u has no spare bits
// (JSQ(d) with d > 2). By default it comes from the runtime's
// per-thread generator; under DeterministicRNG it is the next output
// of the one seeded stream, so the slices of u (trial coin, JSQ
// samples, latency gate) replay with the seed.
func (r *shardedRNG) word() uint64 {
	if r.deterministic {
		return r.uint64U(0)
	}
	return randv2.Uint64()
}

// Float64 draws a uniform variate in [0, 1) from a shard a fresh
// per-thread word picks (with one shard the pick is moot and the
// variate is the seeded stream's next output).
func (r *shardedRNG) Float64() float64 { return r.float64U(randv2.Uint64()) }

// float64U is Float64 with the shard-pick word supplied by the caller —
// the dispatch hot path draws one random word per request and feeds its
// shard-pick slice here instead of paying a second generator call.
func (r *shardedRNG) float64U(u uint64) float64 {
	z := r.uint64U(u)
	// 53 random bits over 2^53, the same [0, 1) lattice rand.Float64
	// draws from; z>>11 ≤ 2^53−1, so the result is always < 1.
	return float64(z>>11) / (1 << 53)
}

// uint64U advances the shard the low bits of u select and returns the
// mixed output. Only randPickShardBits bits of u are consumed (the
// shard count is capped to match); the variate's entropy comes from
// the shard's state walk, not from u.
//
//bladelint:allow randbits -- r.mask is the runtime shard count minus one, capped at 1<<randPickShardBits so it never reads past the rng slice the caller shifted in
func (r *shardedRNG) uint64U(u uint64) uint64 {
	sh := &r.shards[u&r.mask]
	return splitmix64(sh.state.Add(splitmixGamma))
}

// fillU draws len(dst) random words from the single shard the low bits
// of u select, paying ONE atomic add for the whole batch: the add
// reserves a len(dst)-step span of the shard's Weyl sequence and each
// reserved lattice point mixes into its own full-entropy output word.
// Concurrent batches (and interleaved single draws) on the same shard
// reserve disjoint spans, so no word is ever handed out twice.
//
//bladelint:allow randbits -- r.mask is the runtime shard count minus one, capped at 1<<randPickShardBits so it never reads past the rng slice the caller shifted in
func (r *shardedRNG) fillU(u uint64, dst []uint64) {
	sh := &r.shards[u&r.mask]
	stride := splitmixGamma * uint64(len(dst))
	base := sh.state.Add(stride) - stride
	for i := range dst {
		base += splitmixGamma
		dst[i] = splitmix64(base)
	}
}

// splitmix64 is the output mix of Steele, Lea & Flood's SplitMix64.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}
