package serve

import "runtime"

// One-rand-word bit layout — the single source of truth.
//
// The lock-free hot path (Decide) draws exactly one random word per
// request (shardedRNG.word: the seeded stream's next output under
// DeterministicRNG) and every randomized step consumes its own bit
// slice of that word. The slices MUST stay pairwise disjoint: two consumers sharing
// bits would correlate decisions that the plan's probabilistic model
// assumes independent (TestRandWordSlicesDisjoint pins this, and
// DESIGN.md §15 documents the contract). Layout of word u:
//
//	bits  0–5   estimator shard pick            (u & (1<<randEstShardBits − 1))
//	bits  6–11  sharded-RNG shard pick          (float64U(u >> randPickShardShift))
//	bits 12–43  JSQ(d) station samples, d ≤ 2   (u >> randSampleShift, 16 bits each)
//	bits 44–55  breaker trial coin              (u >> randTrialShift & trial mask)
//	bits 56–58  latency-sample gate             (u >> randLatGateShift & stride−1)
//	bits 59–63  spare
//
// Two deliberate non-consumers of u:
//
//   - The redirect re-draw reuses the RNG shard slice (bits 6–11). The
//     slice only selects WHICH SplitMix64 shard advances; the variate
//     itself comes from the shard's state walk, so the first draw and
//     the redraw are independent even from the same shard.
//   - The sampled latency observation picks its metrics shard from a
//     fresh random word: it fires 1-in-p2SampleStride and already pays
//     a clock read, so a second generator call is noise there — and it
//     frees 8 bits of u for the JSQ samples.
//
// JSQ(d) with d > 2 would need 16 more bits than u has spare, so those
// configurations draw a dedicated word for the samples (jsqBits).
//
// # Batch word streams (DecideBatch)
//
// The batched hot path draws ONE per-batch word u0 from the per-thread
// generator and then one per-decision word w_j per batch slot from a
// single SplitMix64 shard (shardedRNG.fillU: the shard u0's RNG-shard
// slice selects advances by k·gamma in one atomic add, and the k
// reserved lattice points mix into k independent words — NOT k slices
// of one word, so each decision gets a full-entropy word). u0's slices
// are consumed once per batch (estimator shard, RNG shard, redirect
// redraws); each w_j carries the per-decision slices:
//
//	bits  0–52  static pick variate             (w & (1<<randBatchPickBits − 1), d ≤ 2 unused)
//	bits 12–43  JSQ(d) station samples, d ≤ 2   (w >> randSampleShift, static pick unused)
//	bits 56–58  latency-sample gate             (w >> randLatGateShift & stride−1)
//
// The static pick and the JSQ samples overlap by design: they are
// alternative consumers (a plan routes by exactly one policy), so each
// policy's live slices stay pairwise disjoint — the invariant
// TestRandWordSlicesDisjoint pins per policy. JSQ(d) with d > 2 draws
// a second stream word per decision and consumes it whole, exactly as
// the single-shot path draws a dedicated jsqBits word. The trial-coin
// slice has no batch counterpart: a posted trial routes the whole
// batch through the per-decision exact path, which consumes the
// single-shot layout above.
const (
	// randBatchPickBits is the width of the batch static-pick variate:
	// 53 bits matches the [0, 1) lattice rand.Float64 draws from and
	// leaves the latency gate's slice (bits 56–58) untouched.
	randBatchPickBits = 53
)

const (
	randEstShardBits = 6 // estimator shard count is capped at 1<<this

	randPickShardBits  = 6 // RNG shard count is capped at 1<<this
	randPickShardShift = 6

	randSampleShift = 12 // d·16-bit JSQ station samples (d ≤ 2 from u)

	randTrialBits  = 12 // trial coin resolution: TrialFraction · 2^12
	randTrialShift = 44

	randLatGateBits  = 3 // == log2(p2SampleStride); pinned by test
	randLatGateShift = 56

	// randSpareBits claims the unconsumed top of the word by name, so
	// the layout tiles all 64 bits: est+rng+jsq+trial+gate+spare == 64
	// (the randbits lint check enforces the sum). Widening any slice
	// must shrink this count in the same commit — "spare" is a budget,
	// not a free-for-all.
	randSpareBits = 5
)

// hotShards sizes a per-CPU sharded structure whose shard pick consumes
// a bit slice of the per-request random word: the next power of two of
// GOMAXPROCS, capped so the index fits its slice. Beyond 64 shards the
// contention win is negligible anyway — the shard states are
// cache-line-padded and picks spread uniformly.
func hotShards(limitBits int) int {
	n := nextPow2(runtime.GOMAXPROCS(0))
	if limit := 1 << limitBits; n > limit {
		n = limit
	}
	return n
}
