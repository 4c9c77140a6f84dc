package sim

// Class distinguishes the two task populations of the model.
type Class int

const (
	// Generic tasks arrive in one stream and may run on any server.
	Generic Class = iota
	// Special tasks are dedicated to one server.
	Special
)

// String returns the class name.
func (c Class) String() string {
	if c == Special {
		return "special"
	}
	return "generic"
}

// task is one unit of work flowing through the simulation.
type task struct {
	class    Class
	arrival  float64 // absolute arrival time
	req      float64 // execution requirement (instructions)
	degraded bool    // arrived while some station was fully down
}

// eventKind discriminates scheduler events.
type eventKind uint8

const (
	evGenericArrival eventKind = iota // next generic-stream arrival
	evSpecialArrival                  // next special-stream arrival at .station
	evDeparture                       // task completes on a blade of .station
	evFailure                         // failure-schedule transition at .station
	evRetry                           // backoff retry of a blocked generic task
)

// event is a scheduled occurrence, 32 bytes so the heap sifts small
// values. It carries no task: arg is the service id for a departure
// (the task lives once, in the station's active set), the new
// down-blade count for a failure, and a retrySlab slot for a retry.
type event struct {
	time    float64
	seq     uint64 // FIFO tie-break for equal times
	arg     uint64
	station int32
	kind    eventKind
}

// eventHeap is a binary min-heap on (time, seq), hand-rolled on the
// concrete event type so scheduling never boxes an event (container/heap
// would allocate on every Push and Pop). The sifts move a hole instead
// of swapping, so each level costs one 32-byte copy. The (time, seq)
// key is a strict total order (seq is unique), so any correct heap pops
// events in exactly the same sequence: run results depend only on the
// order schedule is called in, never on the heap's shape.
type eventHeap []event

// before reports whether a precedes b in (time, seq) order.
func before(a, b *event) bool {
	if a.time != b.time { //bladelint:allow floateq -- heap order must be exact and total for replay determinism; tolerance breaks transitivity
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (h eventHeap) down(i int) {
	n := len(h)
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&h[r], &h[c]) {
			c = r
		}
		if !before(&h[c], &e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// calendar wraps the heap with sequence numbering and a hold-style
// root replace. next returns the earliest event but leaves it at the
// root; if the handler then schedules, the new event overwrites the
// root with a single sift-down instead of a pop followed by a push.
// Arrivals always schedule their successor and a departure with a
// queue starts the next task, so most events take that path. Any other
// access settles the deferred pop first.
type calendar struct {
	h       eventHeap
	seq     uint64
	pending bool // h[0] was returned by next and awaits removal
}

func newCalendar() *calendar {
	return &calendar{h: make(eventHeap, 0, 1024)}
}

func (c *calendar) schedule(e event) {
	e.seq = c.seq
	c.seq++
	if c.pending {
		c.pending = false
		c.h[0] = e
		c.h.down(0)
		return
	}
	c.h = append(c.h, e)
	c.h.up(len(c.h) - 1)
}

// settle performs the pop that next deferred.
func (c *calendar) settle() {
	if !c.pending {
		return
	}
	c.pending = false
	last := len(c.h) - 1
	c.h[0] = c.h[last]
	c.h = c.h[:last]
	if last > 0 {
		c.h.down(0)
	}
}

func (c *calendar) next() (event, bool) {
	c.settle()
	if len(c.h) == 0 {
		return event{}, false
	}
	c.pending = true
	return c.h[0], true
}

func (c *calendar) empty() bool {
	c.settle()
	return len(c.h) == 0
}

// peekTime returns the time of the earliest scheduled event; ok is
// false when the calendar is empty.
func (c *calendar) peekTime() (float64, bool) {
	c.settle()
	if len(c.h) == 0 {
		return 0, false
	}
	return c.h[0].time, true
}

// retrySlab owns the payloads of scheduled retry events: a retry
// event's arg is a slot here. Freed slots are reused, so the slab
// grows only to the largest number of retries pending at once.
type retrySlab struct {
	recs []retryRec
	free []uint64
}

type retryRec struct {
	task    task
	attempt int // retries already performed, this one included
}

// put stores a payload and returns its slot.
func (s *retrySlab) put(t task, attempt int) uint64 {
	rec := retryRec{task: t, attempt: attempt}
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.recs[slot] = rec
		return slot
	}
	s.recs = append(s.recs, rec)
	return uint64(len(s.recs) - 1)
}

// take returns the payload in slot and frees the slot.
func (s *retrySlab) take(slot uint64) (task, int) {
	rec := s.recs[slot]
	s.free = append(s.free, slot)
	return rec.task, rec.attempt
}

// fifo is an allocation-friendly FIFO queue of tasks backed by a
// sliding window over a slice.
type fifo struct {
	buf  []task
	head int
}

func (q *fifo) push(t task) { q.buf = append(q.buf, t) }

func (q *fifo) pop() (task, bool) {
	if q.head >= len(q.buf) {
		return task{}, false
	}
	t := q.buf[q.head]
	q.head++
	// Compact once the dead prefix dominates, amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return t, true
}

func (q *fifo) len() int { return len(q.buf) - q.head }
