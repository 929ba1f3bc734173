package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The ingest-paced workload's shape: one producer sends 32-event PUB batches
// every 320 µs (100,000 events/s, about 30% of where a closed-loop producer
// saturates simingestd on a 2-CPU host) and one consumer tails partition 0
// with POLL every 250 µs, or at once when a POLL came back full.
const (
	ingestRate    = 100_000
	ingestBatch   = 32
	ingestPeriod  = int64(ingestBatch) * int64(time.Second) / ingestRate
	pollEvery     = 250 * int64(time.Microsecond)
	pollMax       = 1024
	ingestClients = 4
	ingestRetain  = 65536
	// drainGrace is how long the consumer keeps polling after the last batch
	// is due before it counts the events it has not seen as missed.
	drainGrace = 5 * time.Second
	// ingestBacklog is the backlog each set-up publishes, one retention
	// window's worth, before it counts the daemon as ready.
	ingestBacklog = ingestRetain
)

var ingestFlags = []string{"-clients", strconv.Itoa(ingestClients), "-batch", strconv.Itoa(ingestBatch),
	"-retain-events", strconv.Itoa(ingestRetain)}

// schedule is an open-loop send schedule: batch b is due at start + b·period
// and carries payload due(b) + salt in each of its events. The salt is drawn
// from the seed; the consumer subtracts it to recover an event's due time.
type schedule struct {
	start   int64
	batches int
	salt    uint64
}

func newSchedule(seed uint64, start, end int64) schedule {
	return schedule{start: start, batches: int((end - start + ingestPeriod - 1) / ingestPeriod),
		salt: mix64(seed) >> 24}
}

func (s schedule) due(b int) int64           { return s.start + int64(b)*ingestPeriod }
func (s schedule) events() int               { return s.batches * ingestBatch }
func (s schedule) payloadOf(b int) uint64    { return uint64(s.due(b)) + s.salt }
func (s schedule) payload(seq uint64) uint64 { return s.payloadOf(int((seq - 1) / ingestBatch)) }

// ingestRun is what one ingest session saw, indexed by batch or by event
// (event k is the producer's (k+1)-th, in batch k/32). Times are clock ns; 0
// means never.
type ingestRun struct {
	sched     schedule
	sentAt    []int64 // per batch: when its write began
	ackAt     []int64 // per event: when its OK was read
	visAt     []int64 // per event: when the consumer read it
	published uint64
	pacedRT   bool   // the pacing thread ran at real-time priority
	ok        uint64 // events delivered once, in order, intact
	missed    uint64
	skipped   uint64
	mismatch  error
}

// runIngestSession sends sched over producer, tails it over consumer, and
// checks both. It returns once every ack is read and the consumer has seen
// every event, or drainGrace after the last due time.
func runIngestSession(clk clock, sched schedule, producer, consumer net.Conn, from uint64) (*ingestRun, error) {
	n := sched.events()
	run := &ingestRun{sched: sched, sentAt: make([]int64, sched.batches), ackAt: make([]int64, n),
		visAt: make([]int64, n)}
	deadline := sched.due(sched.batches) + int64(drainGrace)
	var published atomic.Uint64
	var consumed atomic.Bool
	var wg sync.WaitGroup
	var writeErr, ackErr, pollErr error
	var ackMismatch error
	tick := make(chan struct{}, 1)
	buf := make([]byte, 0, ingestBatch*32)
	send := func(b int) bool {
		buf = buf[:0]
		p := sched.payloadOf(b)
		for range ingestBatch {
			buf = append(buf, "PUB "...)
			buf = strconv.AppendUint(buf, p, 10)
			buf = append(buf, '\n')
		}
		run.sentAt[b] = clk.now()
		if _, err := producer.Write(buf); err != nil {
			writeErr = fmt.Errorf("write PUB batch %d: %w", b, err)
			producer.Close() // unblocks the ack reader
			return false
		}
		published.Store(uint64(b+1) * ingestBatch)
		return true
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		run.pacedRT = pace(clk, sched, deadline, send, tick, consumed.Load)
	}()
	go func() { // ack reader
		defer wg.Done()
		r := bufio.NewReader(producer)
		for k := range n {
			line, err := r.ReadSlice('\n')
			if err != nil {
				ackErr = fmt.Errorf("read OK of event %d: %w", k, err)
				return
			}
			t := clk.now()
			if seq, ok := parseUintAfter(line[:len(line)-1], "OK "); !ok || seq != uint64(k+1) {
				ackMismatch = fmt.Errorf("PUB %d: got %q, want \"OK %d\"", sched.payload(uint64(k+1)), line, k+1)
				producer.Close()
				return
			}
			run.ackAt[k] = t
		}
	}()
	chk := newEventChecker(sched.payload)
	go func() {
		defer wg.Done()
		defer consumed.Store(true)
		pollErr = consume(clk, sched, deadline, consumer, from, tick, chk, run.visAt)
	}()
	wg.Wait()
	if err := errors.Join(writeErr, ackErr, pollErr); err != nil && ackMismatch == nil {
		return nil, err
	}
	run.published = published.Load()
	run.skipped = chk.skipped
	var err error
	run.ok, run.missed, err = chk.finish(run.published)
	run.mismatch = errors.Join(ackMismatch, err)
	return run, nil
}

// consume tails partition 0 from offset cursor, one POLL per tick (or at
// once after a full response), until it has read every event of the
// schedule or the deadline passes, checking offsets and events and stamping
// each event's read time in visAt.
func consume(clk clock, sched schedule, deadline int64, conn net.Conn, cursor uint64, tick <-chan struct{}, chk *eventChecker, visAt []int64) error {
	r := bufio.NewReaderSize(conn, 64<<10)
	total := cursor + uint64(sched.events())
	var req []byte
	var f [4]uint64
	for full := false; cursor < total && clk.now() < deadline; {
		if !full {
			if _, ok := <-tick; !ok {
				return nil
			}
		}
		req = append(req[:0], "POLL 0 "...)
		req = strconv.AppendUint(req, cursor, 10)
		req = append(req, " "+strconv.Itoa(pollMax)+"\n"...)
		if _, err := conn.Write(req); err != nil {
			return fmt.Errorf("write POLL: %w", err)
		}
		var got, first uint64
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return fmt.Errorf("read POLL response: %w", err)
			}
			t := clk.now()
			line = line[:len(line)-1]
			if fields(line, "EVT ", f[:4]) {
				off, producer, seq, payload := f[0], f[1], f[2], f[3]
				if got == 0 {
					first = off
				} else if off != first+got {
					return fmt.Errorf("POLL at %d: offset %d after %d events from %d", cursor, off, got, first)
				}
				got++
				if chk.observe(int64(producer), seq, payload) && seq >= 1 && seq <= uint64(len(visAt)) {
					visAt[seq-1] = t
				}
				continue
			}
			if !fields(line, "END ", f[:2]) {
				return fmt.Errorf("POLL at %d: unexpected line %q", cursor, line)
			}
			nextOff, skipped := f[0], f[1]
			if nextOff-cursor != skipped+got || (got > 0 && first != nextOff-got) {
				return fmt.Errorf("POLL at %d: END %d %d after %d events from %d", cursor, nextOff, skipped, got, first)
			}
			chk.skip(skipped)
			cursor = nextOff
			break
		}
		full = got == pollMax
	}
	return nil
}

// fields parses the space-separated decimal fields that follow prefix and
// fill the rest of line into out, reporting whether exactly len(out) parse.
func fields(line []byte, prefix string, out []uint64) bool {
	if len(line) < len(prefix) || string(line[:len(prefix)]) != prefix {
		return false
	}
	rest := line[len(prefix):]
	for i := range out {
		end := 0
		for end < len(rest) && rest[end] != ' ' {
			end++
		}
		v, ok := parseUintAfter(rest[:end], "")
		if !ok {
			return false
		}
		out[i] = v
		if i == len(out)-1 {
			return end == len(rest)
		}
		if end == len(rest) {
			return false
		}
		rest = rest[end+1:]
	}
	return false
}

// ingestDaemon is a simingestd process with a producer and a consumer
// connection. Partition 0 holds the set-up backlog at offsets
// [0, ingestBacklog).
type ingestDaemon struct {
	d                  *daemon
	producer, consumer net.Conn
}

func (g *ingestDaemon) close() {
	if g.producer != nil {
		g.producer.Close()
	}
	if g.consumer != nil {
		g.consumer.Close()
	}
	g.d.stop()
}

// startIngest execs simingestd, publishes the backlog and connects. It
// returns the set-up time: exec until the backlog is visible to consumers.
func startIngest(cfg *runConfig, metrics bool) (*ingestDaemon, time.Duration, error) {
	t0 := time.Now()
	d, _, err := startDaemon(cfg.bin("simingestd"), ingestFlags, metrics, cfg.daemonProcs)
	if err != nil {
		return nil, 0, err
	}
	g := &ingestDaemon{d: d}
	err = publishBacklog(d.addr, cfg.seed)
	setup := time.Since(t0)
	// The backlog's connection took slot 0 and returns it to the back of the
	// free list, so the producer gets a process id with no events yet.
	if err == nil {
		g.producer, err = net.Dial("tcp", d.addr)
	}
	if err == nil {
		g.consumer, err = net.Dial("tcp", d.addr)
	}
	if err != nil {
		g.close()
		return nil, 0, err
	}
	return g, setup, nil
}

// publishBacklog publishes ingestBacklog events over a connection of its
// own, one 32-event batch at a time, checks every acknowledgement, and waits
// until partition 0 ends exactly at the backlog.
func publishBacklog(addr string, seed uint64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := setDeadline(0, conn); err != nil {
		return err
	}
	r := bufio.NewReader(conn)
	var buf []byte
	for k := uint64(0); k < ingestBacklog; k += ingestBatch {
		buf = buf[:0]
		for i := range uint64(ingestBatch) {
			buf = append(buf, "PUB "...)
			buf = strconv.AppendUint(buf, mix64(seed+k+i), 10)
			buf = append(buf, '\n')
		}
		if _, err := conn.Write(buf); err != nil {
			return fmt.Errorf("backlog: %w", err)
		}
		for i := range uint64(ingestBatch) {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return fmt.Errorf("backlog: %w", err)
			}
			if seq, ok := parseUintAfter(line[:len(line)-1], "OK "); !ok || seq != k+i+1 {
				return mismatchError{fmt.Errorf("backlog PUB %d: got %q, want \"OK %d\"", mix64(seed+k+i), line, k+i+1)}
			}
		}
	}
	var f [2]uint64
	for {
		if _, err := conn.Write([]byte("HWM 0\n")); err != nil {
			return fmt.Errorf("backlog: %w", err)
		}
		line, err := r.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("backlog: %w", err)
		}
		if !fields(line[:len(line)-1], "HWM ", f[:]) || f[1] > ingestBacklog {
			return mismatchError{fmt.Errorf("backlog of %d events: HWM 0 answered %q", ingestBacklog, line)}
		}
		if f[1] == ingestBacklog {
			return nil
		}
		time.Sleep(time.Millisecond) // the drain loop moves the tail of the backlog within a millisecond or two
	}
}

// ingestWindow is what one time window of a session measured.
type ingestWindow struct {
	acked         uint64  // acks read in the window
	lat           sliced  // per event due in the window: ack − due
	lag, ackToVis samples // per event due in the window
	fromSend      samples // per event due in the window: ack − send, which leaves out the generator's lateness
	late          samples // per batch due in the window: send − due
}

func (run *ingestRun) window(from, to int64) ingestWindow {
	var w ingestWindow
	for _, t := range run.ackAt {
		if t >= from && t < to {
			w.acked++
		}
	}
	for b := range run.sched.batches {
		due := run.sched.due(b)
		if due < from || due >= to {
			continue
		}
		w.late.add(run.sentAt[b] - due)
		for k := b * ingestBatch; k < (b+1)*ingestBatch; k++ {
			if run.ackAt[k] != 0 {
				w.lat.add(run.ackAt[k] - due)
				w.fromSend.add(run.ackAt[k] - run.sentAt[b])
			}
			if run.visAt[k] != 0 {
				w.lag.add(run.visAt[k] - due)
				if run.ackAt[k] != 0 {
					w.ackToVis.add(max(0, run.visAt[k]-run.ackAt[k]))
				}
			}
		}
	}
	return w
}

// runIngest is an untraced ingest-paced run: cfg.setups daemons set up and
// timed, then the last one driven for cfg.warmup + cfg.window.
func runIngest(cfg *runConfig) (*outcome, error) {
	var setups []float64
	var g *ingestDaemon
	for range cfg.setups {
		if g != nil {
			g.close()
		}
		var setup time.Duration
		var err error
		if g, setup, err = startIngest(cfg, false); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer g.close()
	if err := setDeadline(cfg.warmup+cfg.window+drainGrace, g.producer, g.consumer); err != nil {
		return nil, err
	}

	clk := clock{time.Now()}
	start := int64(20 * time.Millisecond)
	warm, end := start+int64(cfg.warmup), start+int64(cfg.warmup+cfg.window)
	sched := newSchedule(cfg.seed, start, end)
	type cpuMark struct {
		srv, self time.Duration
		err       error
	}
	marks := make(chan [2]cpuMark, 1)
	go func() {
		var m [2]cpuMark
		for i, at := range []int64{warm, end} {
			clk.sleepFor(at)
			var e1, e2 error
			m[i].srv, e1 = procCPU(g.d.pid())
			m[i].self, e2 = procCPU(0)
			m[i].err = errors.Join(e1, e2)
		}
		marks <- m
	}()
	run, err := runIngestSession(clk, sched, g.producer, g.consumer, ingestBacklog)
	m := <-marks
	if err != nil {
		return nil, err
	}
	if err := errors.Join(m[0].err, m[1].err); err != nil {
		return nil, fmt.Errorf("read CPU time: %w", err)
	}
	w := run.window(warm, end)
	if w.acked == 0 || len(w.lag) == 0 {
		return nil, fmt.Errorf("no acknowledged or visible events in the measured window")
	}
	latD, lagD, lateD := summarize(w.lat.all()), summarize(w.lag), summarize(w.late)
	window := cfg.window.Seconds()
	o := newOutcome(run.mismatch, run.published, run.ok)
	o.set("throughput_ops", float64(w.acked)/window, "1/s")
	o.set("latency_p50_us", latD.P50us, "us")
	o.set("latency_p99_us", w.lat.p99us(), "us")
	o.set("visible_lag_p50_us", lagD.P50us, "us")
	o.set("server_cpu_us_per_op", float64(m[1].srv-m[0].srv)/1e3/float64(w.acked), "us")
	o.set("success_ratio", float64(run.ok)/float64(run.published), "ratio")
	o.set("setup_s", median(setups), "s")
	o.stamp["daemon"] = "simingestd"
	o.stamp["daemon_flags"] = ingestFlags
	o.stamp["setup_runs_s"] = setups
	o.stamp["schedule"] = map[string]any{"events_per_s": ingestRate, "batch": ingestBatch,
		"period_us": float64(ingestPeriod) / 1e3, "poll_every_us": float64(pollEvery) / 1e3, "poll_max": pollMax}
	o.stamp["samples"] = map[string]any{"latency": latD, "visible_lag": lagD, "loadgen_late": lateD, "latency_from_send": summarize(w.fromSend)}
	o.stamp["loadgen_cpu_us_per_op"] = float64(m[1].self-m[0].self) / 1e3 / float64(w.acked)
	o.stamp["pacer_realtime"] = run.pacedRT
	o.stamp["missed"] = run.missed
	o.stamp["retention_skipped"] = run.skipped
	return o, nil
}
