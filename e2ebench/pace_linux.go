package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer holds one generator goroutine to its schedule. It sleeps on a
// timerfd read, which parks the goroutine in the runtime's network
// poller: the processor is free for the daemon while the generator
// waits, and the wake-up has the kernel timer's precision. Go's own
// timers wake about a millisecond late on Linux, and a nanosleep
// system call keeps the processor tied up until the runtime's monitor
// takes it back, which stalls the daemon for up to 10ms when every
// processor has a generator asleep on it.
type pacer struct {
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil blocks until t: a timerfd sleep to spinWindow before t,
// then a yielding spin.
func (p *pacer) waitUntil(t time.Time) error {
	if d := time.Until(t) - spinWindow; d > 0 {
		spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		if _, err := p.f.Read(p.buf[:]); err != nil {
			return fmt.Errorf("timerfd read: %w", err)
		}
	}
	spinUntil(t)
	return nil
}

func (p *pacer) close() error { return p.f.Close() }
