package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// clock reads monotonic nanoseconds since a run's epoch. Every timestamp of a
// run comes from one clock, so due times, sends, acks and reads compare
// directly.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// sleepFor sleeps the calling goroutine until the clock reads at least at.
// Go timers are fine at millisecond scale; the paced loops use sleepUntil.
func (c clock) sleepFor(at int64) {
	if d := at - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK from <linux/prctl.h>

// pace runs an open-loop schedule on one precise thread: send(b) when batch
// b falls due, and a tick on the consumer's POLL cadence, until every batch
// is sent and consumed() reports the consumer finished, or deadline passes.
// It closes tick when it returns. send reports false to stop sending.
//
// One thread does all the waiting because a goroutine asleep in nanosleep
// keeps its P: with the producer and the consumer each on a sleeping thread,
// both Ps of a 2-CPU host can be held, and the readers then wait for sysmon
// to retake one, adding up to milliseconds in some runs and not in others.
// (More Ps than CPUs was worse still.) The consumer does its I/O on its own
// goroutine, woken by tick.
//
// It reports whether the thread ran at real-time priority.
func pace(clk clock, sched schedule, deadline int64, send func(b int) bool, tick chan<- struct{}, consumed func() bool) (rt bool) {
	defer close(tick)
	rt, release := preciseThread()
	defer release()
	b, nextPoll := 0, sched.start
	for {
		if now := clk.now(); (b == sched.batches && consumed()) || now >= deadline {
			return rt
		}
		at := nextPoll
		if b < sched.batches {
			at = min(at, sched.due(b))
		}
		clk.sleepUntil(at)
		now := clk.now()
		if b < sched.batches && sched.due(b) <= now {
			if send(b) {
				b++
			} else {
				b = sched.batches
			}
		}
		if nextPoll <= now {
			select {
			case tick <- struct{}{}:
			default: // the consumer is still busy with the last POLL: skip this slot
			}
			if nextPoll += pollEvery; nextPoll <= now {
				nextPoll = now + pollEvery
			}
		}
	}
}

// preciseThread pins the calling goroutine to its OS thread, sets that
// thread's timer slack to 1 ns and, where permitted, gives it the lowest
// real-time priority (SCHED_FIFO 1), so sleepUntil wakes within tens of
// microseconds of its deadline. It reports whether the priority was granted.
//
// A plain time.Sleep below a millisecond overshoots by about 0.9 ms on an
// idle 2-CPU host (the runtime's idle poller waits in whole milliseconds),
// which would make a 320 µs schedule run in bursts. With the slack alone the
// thread still queues behind busy daemon threads: the p99 of its lateness was
// 100–600 µs and changed from run to run; with the priority it was about
// 30 µs in every run. The thread sleeps all but a few microseconds of
// each wake-up, and the kernel's real-time throttling caps it in any case.
//
// release restores the default slack and policy and unpins the thread
// before the goroutine ends, so the runtime does not retire the thread.
func preciseThread() (rt bool, release func()) {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: the default slack is only less precise
	rt = setScheduler(schedFIFO, 1) == nil
	return rt, func() {
		if rt {
			_ = setScheduler(schedOther, 0) // back to the policy every thread starts with
		}
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0) // 0 restores the default
		runtime.UnlockOSThread()
	}
}

const (
	schedOther = 0 // SCHED_OTHER from <linux/sched.h>
	schedFIFO  = 1 // SCHED_FIFO
)

// setScheduler sets the calling thread's scheduling policy and priority.
func setScheduler(policy int, prio int32) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&prio))); e != 0 {
		return e
	}
	return nil
}

// sleepUntil blocks the calling thread in nanosleep until the clock reads at
// least at. Call it from a goroutine inside preciseThread.
func (c clock) sleepUntil(at int64) {
	for {
		d := at - c.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop re-checks
	}
}
