package sim

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

func TestEventIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("sizeof(event) = %d, want 32: the heap sifts whole events", got)
	}
}

// TestCalendarPopsInTimeSeqOrder drives the calendar the way the
// engines do — every next followed by zero, one or several schedules,
// with peekTime and empty in between — and checks each popped event
// against a sorted reference of everything still pending.
func TestCalendarPopsInTimeSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cal := newCalendar()
	var pending []event // reference: every scheduled, unpopped event
	var seq uint64
	add := func(at float64) {
		cal.schedule(event{time: at})
		pending = append(pending, event{time: at, seq: seq})
		seq++
	}
	for i := 0; i < 20; i++ {
		add(float64(rng.Intn(10)))
	}
	for step := 0; step < 5000; step++ {
		if rng.Intn(4) == 0 {
			if got, ok := cal.peekTime(); ok != (len(pending) > 0) || (ok && got != minEvent(pending).time) {
				t.Fatalf("step %d: peekTime = %g, %v", step, got, ok)
			}
		}
		if cal.empty() != (len(pending) == 0) {
			t.Fatalf("step %d: empty() disagrees with %d pending", step, len(pending))
		}
		ev, ok := cal.next()
		if !ok {
			if len(pending) > 0 {
				t.Fatalf("step %d: calendar empty with %d pending", step, len(pending))
			}
			add(float64(rng.Intn(10)))
			continue
		}
		want := minEvent(pending)
		if ev.time != want.time || ev.seq != want.seq {
			t.Fatalf("step %d: popped (%g, %d), want (%g, %d)", step, ev.time, ev.seq, want.time, want.seq)
		}
		pending = pending[1:]
		// Integer times force many (time) ties, so seq decides order.
		for k := rng.Intn(3); k > 0; k-- {
			add(ev.time + float64(rng.Intn(5)))
		}
	}
}

// minEvent sorts pending by (time, seq) and returns its head.
func minEvent(pending []event) event {
	sort.Slice(pending, func(i, j int) bool { return before(&pending[i], &pending[j]) })
	return pending[0]
}

func TestRetrySlabReusesSlots(t *testing.T) {
	var s retrySlab
	a := s.put(task{arrival: 1}, 1)
	b := s.put(task{arrival: 2}, 2)
	if got, attempt := s.take(a); got.arrival != 1 || attempt != 1 {
		t.Fatalf("take(%d) = %v, %d", a, got, attempt)
	}
	if c := s.put(task{arrival: 3}, 3); c != a {
		t.Fatalf("freed slot %d not reused, got %d", a, c)
	}
	if got, attempt := s.take(b); got.arrival != 2 || attempt != 2 {
		t.Fatalf("take(%d) = %v, %d", b, got, attempt)
	}
	if len(s.recs) != 2 {
		t.Fatalf("slab grew to %d records, want 2", len(s.recs))
	}
}
