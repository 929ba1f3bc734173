package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"time"
)

// The kv workloads' shape. 16,384 keys over 64 stripes put about 256 entries
// on each stripe's chain; 64 stripes (not simkvd's default 16) keep two
// writers from colliding on one stripe's combining round most of the time;
// batches of 32 match the server's pipeline depth, so one read wakes the
// server for a whole batch.
const (
	kvKeys    = 16384
	kvStripes = 64
	kvClients = 4
	kvDepth   = 32
	kvConns   = 2
)

var kvFlags = []string{"-clients", strconv.Itoa(kvClients), "-stripes", strconv.Itoa(kvStripes),
	"-pipeline", strconv.Itoa(kvDepth)}

var keyNames = func() []string {
	names := make([]string, kvKeys)
	for i := range names {
		names[i] = fmt.Sprintf("k%05d", i)
	}
	return names
}()

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func preloadValue(seed uint64, key int) uint64 { return mix64(seed*0x9e3779b97f4a7c15 + uint64(key)) }

// kvStream is one connection's seeded request stream: uniform over the keys
// the connection owns (index ≡ conn mod kvConns), putPct percent PUTs.
// PUT values count up per connection, so a stale read never matches.
type kvStream struct {
	conn   int
	putPct uint64
	rng    *rand.Rand
	seq    uint64
}

func newKVStream(seed uint64, conn int, putPct uint64) *kvStream {
	return &kvStream{conn: conn, putPct: putPct, rng: rand.New(rand.NewPCG(seed, uint64(conn)))}
}

func (s *kvStream) batch(ops []kvOp) []kvOp {
	for range kvDepth {
		op := kvOp{key: int32(s.rng.IntN(kvKeys/kvConns)*kvConns + s.conn)}
		if s.rng.Uint64N(100) < s.putPct {
			s.seq++
			op.put, op.val = true, s.seq<<1|uint64(s.conn)
		}
		ops = append(ops, op)
	}
	return ops
}

// mismatchError is a response that contradicts the model: the program under
// test answered wrongly.
type mismatchError struct{ error }

// kvClient speaks the pipelined kv protocol on one connection (TCP to the
// daemon, or an in-memory pipe to an in-process server) and checks every
// response against its model.
type kvClient struct {
	id     int
	rw     io.ReadWriter
	r      *bufio.Reader
	model  kvModel
	buf    []byte
	respAt []int64 // read time of each response of the last exchange
}

func newKVClient(id int, rw io.ReadWriter) *kvClient {
	return &kvClient{id: id, rw: rw, r: bufio.NewReader(rw), model: make(kvModel, kvKeys)}
}

func appendReq(buf []byte, op kvOp) []byte {
	if op.put || op.load {
		buf = append(buf, "PUT "...)
		buf = append(buf, keyNames[op.key]...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, op.val, 10)
	} else {
		buf = append(buf, "GET "...)
		buf = append(buf, keyNames[op.key]...)
	}
	return append(buf, '\n')
}

// exchange writes ops as one pipelined batch, then reads and checks one
// response per op, stamping each read in c.respAt. start is the write time.
func (c *kvClient) exchange(clk clock, ops []kvOp) (start int64, err error) {
	c.buf = c.buf[:0]
	for _, op := range ops {
		c.buf = appendReq(c.buf, op)
	}
	c.respAt = c.respAt[:0]
	start = clk.now()
	if _, err := c.rw.Write(c.buf); err != nil {
		return start, fmt.Errorf("write batch: %w", err)
	}
	for _, op := range ops {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return start, fmt.Errorf("read response: %w", err)
		}
		t := clk.now()
		if err := c.model.check(op, line[:len(line)-1]); err != nil {
			return start, mismatchError{fmt.Errorf("connection %d: %w", c.id, err)}
		}
		c.respAt = append(c.respAt, t)
	}
	return start, nil
}

// preload PUTs every key this client owns, in pipelined batches.
func (c *kvClient) preload(clk clock, seed uint64) error {
	ops := make([]kvOp, 0, kvDepth)
	for k := c.id; k < kvKeys; k += kvConns {
		ops = append(ops, kvOp{load: true, key: int32(k), val: preloadValue(seed, k)})
		if len(ops) == kvDepth || k+kvConns >= kvKeys {
			if _, err := c.exchange(clk, ops); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			ops = ops[:0]
		}
	}
	return nil
}

// preloadAll preloads through every client at once.
func preloadAll(clk clock, seed uint64, clients []*kvClient) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.preload(clk, seed)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// kvDaemon is a simkvd process with preloaded client connections.
type kvDaemon struct {
	d       *daemon
	conns   []net.Conn
	clients []*kvClient
}

func (k *kvDaemon) close() {
	for _, c := range k.conns {
		c.Close()
	}
	k.d.stop()
}

// ioGrace is how long past its planned end a session may still wait on a
// connection before the read or write fails, so a hung daemon ends the run
// with an error instead of hanging it.
const ioGrace = 10 * time.Second

// setDeadline bounds every read and write on conns to d from now.
func setDeadline(d time.Duration, conns ...net.Conn) error {
	at := time.Now().Add(d + ioGrace)
	for _, c := range conns {
		if err := c.SetDeadline(at); err != nil {
			return err
		}
	}
	return nil
}

// startKV execs simkvd, connects kvConns clients and preloads the keyspace.
// It returns the set-up time: exec to listening, plus the preload.
func startKV(cfg *runConfig, metrics bool) (*kvDaemon, time.Duration, error) {
	t0 := time.Now()
	d, _, err := startDaemon(cfg.bin("simkvd"), kvFlags, metrics, cfg.daemonProcs)
	if err != nil {
		return nil, 0, err
	}
	k := &kvDaemon{d: d}
	for i := range kvConns {
		conn, err := net.Dial("tcp", d.addr)
		if err != nil {
			k.close()
			return nil, 0, err
		}
		k.conns = append(k.conns, conn)
		k.clients = append(k.clients, newKVClient(i, conn))
	}
	err = setDeadline(0, k.conns...)
	if err == nil {
		err = preloadAll(clock{t0}, cfg.seed, k.clients)
	}
	if err != nil {
		k.close()
		return nil, 0, err
	}
	return k, time.Since(t0), nil
}

// kvPlan marks a session on its clock: responses read in [warm, a) are
// measured, the first traceCap batches started in [a, end) are traced when
// tracing, and no batch starts at or after end.
type kvPlan struct {
	warm, a, end int64
	traceCap     int // most batches traced per connection
}

// kvConnResult is what one connection of a session saw.
type kvConnResult struct {
	lat           sliced  // request latency, measured window
	putLat        samples // PUT latency, measured window
	inA           uint64  // responses read in the measured window
	attempted, ok uint64
	traced        []kvOp   // the traced batches, kvDepth ops each
	tracedIDs     []uint64 // client.batch span id of each traced batch
	tracedNs      int64    // from the first traced batch's write to the last one's last response
	err           error
}

// startKVSession drives every client with its stream until plan.end; wait
// returns each connection's result once all have finished their last batch.
// With logs non-nil each connection records client.batch spans into its log.
func startKVSession(clk clock, clients []*kvClient, streams []*kvStream, plan kvPlan, logs []*spanLog) (wait func() []kvConnResult) {
	res := make([]kvConnResult, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var log *spanLog
			if logs != nil {
				log = logs[i]
			}
			res[i] = runKVConn(clk, c, streams[i], plan, log)
		}()
	}
	return func() []kvConnResult {
		wg.Wait()
		return res
	}
}

func runKVConn(clk clock, c *kvClient, st *kvStream, plan kvPlan, log *spanLog) kvConnResult {
	var r kvConnResult
	if log != nil {
		r.traced = make([]kvOp, 0, plan.traceCap*kvDepth)
	}
	ops := make([]kvOp, 0, kvDepth)
	var tracedFrom int64
	for clk.now() < plan.end {
		ops = st.batch(ops[:0])
		start, err := c.exchange(clk, ops)
		r.attempted += uint64(len(ops))
		r.ok += uint64(len(c.respAt))
		for i, t := range c.respAt {
			if t >= plan.warm && t < plan.a {
				r.lat.add(t - start)
				if ops[i].put {
					r.putLat.add(t - start)
				}
				r.inA++
			}
		}
		if err != nil {
			r.err = err
			return r
		}
		if log != nil && start >= plan.a && len(r.tracedIDs) < plan.traceCap {
			end := c.respAt[len(c.respAt)-1]
			if len(r.tracedIDs) == 0 {
				tracedFrom = start
			}
			r.tracedNs = end - tracedFrom
			batch := uint64(c.id)<<32 | uint64(len(r.tracedIDs))
			r.tracedIDs = append(r.tracedIDs, log.add("client.batch", batch, 0, start, end))
			r.traced = append(r.traced, ops...)
		}
	}
	return r
}

// sessionError splits the connections' errors with splitErrors.
func sessionError(res []kvConnResult) (mismatch, fatal error) {
	errs := make([]error, len(res))
	for i, r := range res {
		errs[i] = r.err
	}
	return splitErrors(errs...)
}

// splitErrors separates mismatches, where the program answered wrongly and
// the result must say so, from anything else, which aborts the run.
func splitErrors(errs ...error) (mismatch, fatal error) {
	for _, err := range errs {
		var m mismatchError
		switch {
		case err == nil:
		case errors.As(err, &m):
			mismatch = errors.Join(mismatch, err)
		default:
			fatal = errors.Join(fatal, err)
		}
	}
	return mismatch, fatal
}

// runKV is an untraced kv run: cfg.setups fresh daemons set up and timed,
// then the last one measured for cfg.window after cfg.warmup.
func runKV(cfg *runConfig, putPct uint64) (*outcome, error) {
	var setups []float64
	var k *kvDaemon
	for range cfg.setups {
		if k != nil {
			k.close()
		}
		var setup time.Duration
		var err error
		if k, setup, err = startKV(cfg, false); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer k.close()
	if err := setDeadline(cfg.warmup+cfg.window, k.conns...); err != nil {
		return nil, err
	}

	clk := clock{time.Now()}
	plan := kvPlan{warm: int64(cfg.warmup), a: int64(cfg.warmup + cfg.window)}
	plan.end = plan.a
	streams := make([]*kvStream, kvConns)
	for i := range streams {
		streams[i] = newKVStream(cfg.seed, i, putPct)
	}
	wait := startKVSession(clk, k.clients, streams, plan, nil)
	clk.sleepFor(plan.warm)
	srv0, err0 := procCPU(k.d.pid())
	self0, err1 := procCPU(0)
	clk.sleepFor(plan.a)
	srv1, err2 := procCPU(k.d.pid())
	self1, err3 := procCPU(0)
	res := wait()
	if err := errors.Join(err0, err1, err2, err3); err != nil {
		return nil, fmt.Errorf("read CPU time: %w", err)
	}
	mismatch, fatal := sessionError(res)
	if fatal != nil {
		return nil, fatal
	}

	var lat sliced
	var putLat samples
	var inA, attempted, ok uint64
	for _, r := range res {
		lat = append(lat, r.lat...) // each connection's slices are its own consecutive requests
		putLat = append(putLat, r.putLat...)
		inA += r.inA
		attempted += r.attempted
		ok += r.ok
	}
	if inA == 0 {
		return nil, fmt.Errorf("no responses in the measured window")
	}
	window := cfg.window.Seconds()
	latD, putD := summarize(lat.all()), summarize(putLat)
	o := newOutcome(mismatch, attempted, ok)
	o.set("throughput_ops", float64(inA)/window, "1/s")
	o.set("latency_p50_us", latD.P50us, "us")
	o.set("latency_p99_us", lat.p99us(), "us")
	o.set("visible_lag_p50_us", putD.P50us, "us")
	o.set("server_cpu_us_per_op", float64(srv1-srv0)/1e3/float64(inA), "us")
	o.set("success_ratio", float64(ok)/float64(attempted), "ratio")
	o.set("setup_s", median(setups), "s")
	o.stamp["daemon"] = "simkvd"
	o.stamp["daemon_flags"] = kvFlags
	o.stamp["setup_runs_s"] = setups
	o.stamp["samples"] = map[string]any{"latency": latD, "visible_lag": putD}
	o.stamp["loadgen_cpu_us_per_op"] = float64(self1-self0) / 1e3 / float64(inA)
	return o, nil
}
