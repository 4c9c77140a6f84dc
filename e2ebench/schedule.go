package main

import (
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"time"
)

// poissonStreams returns the open-loop arrival schedule of one phase:
// a Poisson process of the given total rate over span, split into
// conns independent sub-streams of rate/conns each (a superposition of
// independent Poisson streams is Poisson at the summed rate). Each
// connection paces its own sub-stream, so no channel hand-off sits
// between the schedule and the send. Offsets are from the phase start.
// The same (seed, phase) always yields the same schedule.
func poissonStreams(seed int64, phase string, rate float64, conns int, span time.Duration) [][]time.Duration {
	out := make([][]time.Duration, conns)
	per := rate / float64(conns)
	for c := range out {
		r := rand.New(rand.NewPCG(uint64(seed), streamKey(phase, c)))
		var t float64
		for {
			t += r.ExpFloat64() / per
			d := time.Duration(t * float64(time.Second))
			if d >= span {
				break
			}
			out[c] = append(out[c], d)
		}
	}
	return out
}

// seededRand returns a generator for the workload inputs named by
// phase (station picks, λ′ jitter, orderings), derived from the seed.
func seededRand(seed int64, phase string) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), streamKey(phase, 0)))
}

func streamKey(phase string, conn int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(phase))
	return h.Sum64() + uint64(conn)*0x9e3779b97f4a7c15
}

// spinWindow is how early a pacer stops sleeping and starts spinning
// (see pacer.waitUntil).
const spinWindow = 60 * time.Microsecond

// spinUntil yields until t, so the daemon's goroutines still run while
// the generator waits out the last stretch.
func spinUntil(t time.Time) {
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
