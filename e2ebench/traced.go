package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/retention"
	"repro/internal/simmap"
)

// A traced run drives the daemon for an untraced stretch and then a traced
// one, each tracedShare of cfg.window, and then replays the traced batches
// in-process. The two TCP stretches give trace.overhead_ratio.
const (
	tracedShare = 0.3
	traceCap    = 8192 // most kv batches traced per connection: bounds memory and the span file
)

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them; a layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"loadgen.late_p50_us", "us"}, {"loadgen.late_p99_us", "us"}, {"loadgen.cpu_us_per_op", "us"},
	{"wire.us_per_batch", "us"},
	{"kvserver.ns_per_req", "ns"}, {"kvserver.allocs_per_req", "count"},
	{"obs.record_ns", "ns"},
	{"simmap.mget_ns_per_key", "ns"}, {"simmap.mset_ns_per_key", "ns"},
	{"simmap.bytes_per_put", "B"}, {"simmap.entries_per_stripe", "count"},
	{"core.helping_degree", "ratio"}, {"core.rounds_per_op", "ratio"},
	{"core.cas_fail_per_op", "ratio"}, {"core.served_by_other_ratio", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"}, {"runtime.gc_cycles_per_kop", "count"},
	{"runtime.live_heap_mb", "MB"}, {"alloc.fresh_ratio", "ratio"}, {"server.rss_peak_mb", "MB"},
	{"ingest.append_batch_us", "us"}, {"queue.dequeue_ns_per_event", "ns"},
	{"spool.append_ns_per_event", "ns"}, {"spool.read_ns_per_event", "ns"},
	{"ingest.ack_to_visible_us", "us"}, {"retention.pass_us", "us"}, {"retention.passes", "count"},
	{"ingest.visible_lag_p99_us", "us"}, {"ingest.retention_skipped", "count"},
	{"trace.overhead_ratio", "ratio"},
}

func newLayerOutcome(mismatch error, attempted, ok uint64) *outcome {
	o := newOutcome(mismatch, attempted, ok)
	for _, m := range perLayer {
		o.set(m.name, 0, m.unit)
	}
	return o
}

// setLayer sets a per-layer metric, keeping the unit perLayer gives it.
func (o *outcome) setLayer(name string, v float64) {
	m, ok := o.metrics[name]
	if !ok {
		panic("per-layer metric not in perLayer: " + name)
	}
	m.Value = v
	o.metrics[name] = m
}

// rtSnap is an in-process runtime/metrics reading.
type rtSnap struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSnap{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(),
		s[3].Value.Float64(), s[4].Value.Float64()}
}

// runtimeLayer sets the GC metrics from runtime/metrics readings around an
// in-process replay of ops operations.
func (o *outcome) runtimeLayer(r0, r1 rtSnap, ops uint64) {
	if d := r1.totalCPU - r0.totalCPU; d > 0 {
		o.setLayer("runtime.gc_cpu_fraction", (r1.gcCPU-r0.gcCPU)/d)
	}
	o.setLayer("runtime.gc_cycles_per_kop", float64(r1.gcCycles-r0.gcCycles)/(float64(ops)/1e3))
}

// liveHeapMB returns the heap the replayed structure holds: the live heap
// after a forced GC, minus the live heap after release drops the structure
// and another GC. The benchmark's own buffers are live in both readings.
func liveHeapMB(release func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	release()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return (float64(before.HeapAlloc) - float64(after.HeapAlloc)) / (1 << 20)
}

// coreLayer sets the core.* and alloc.* metrics from two /metrics scrapes of
// the traced daemon; prefixes name its P-Sim counter families.
func (o *outcome) coreLayer(before, after map[string]uint64, prefixes ...string) {
	fam := func(suffix string) uint64 {
		var names []string
		for _, p := range prefixes {
			names = append(names, p+suffix)
		}
		return counterDelta(before, after, names...)
	}
	ops, rounds, fails := fam("_ops_total"), fam("_cas_success_total"), fam("_cas_fail_total")
	if rounds > 0 {
		o.setLayer("core.helping_degree", float64(fam("_combined_total"))/float64(rounds))
	}
	if ops > 0 {
		o.setLayer("core.rounds_per_op", float64(rounds)/float64(ops))
		o.setLayer("core.cas_fail_per_op", float64(fails)/float64(ops))
		o.setLayer("core.served_by_other_ratio", float64(fam("_served_by_total"))/float64(ops))
	}
	if blocks := counterDelta(before, after, "alloc_blocks_total"); blocks > 0 {
		o.setLayer("alloc.fresh_ratio", float64(counterDelta(before, after, "alloc_fresh_total"))/float64(blocks))
	}
}

// recordNs times obs.Histogram.Record, the per-op cost of the latency
// histograms the daemons keep: the median of five runs of 2^20 records.
func recordNs() float64 {
	h := obs.NewHistogram(1)
	const n = 1 << 20
	var runs []float64
	for range 5 {
		t0 := time.Now()
		for i := range uint64(n) {
			h.Record(0, mix64(i)>>(i&63))
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(runs)
}

func meanNs(spans []span, name string) float64 {
	ns, n := total(spans, name)
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// runKVTraced is the kv ladder: the same batches sent to simkvd over TCP
// (client.batch), served in-process by kvserver over an in-memory connection
// (kvserver.serve_batch), and applied straight to a simmap as the executor's
// same-command runs (simmap.mget / simmap.mset).
func runKVTraced(cfg *runConfig, putPct uint64) (*outcome, error) {
	k, _, err := startKV(cfg, true)
	if err != nil {
		return nil, err
	}
	defer k.close()
	seg := int64(float64(cfg.window) * tracedShare)
	if err := setDeadline(cfg.warmup+2*time.Duration(seg), k.conns...); err != nil {
		return nil, err
	}
	clk := clock{time.Now()}
	plan := kvPlan{warm: int64(cfg.warmup), traceCap: traceCap}
	plan.a = plan.warm + seg
	plan.end = plan.a + seg
	ids := &spanIDs{}
	logs := make([]*spanLog, kvConns)
	streams := make([]*kvStream, kvConns)
	for i := range logs {
		logs[i] = &spanLog{ids: ids}
		streams[i] = newKVStream(cfg.seed, i, putPct)
	}
	wait := startKVSession(clk, k.clients, streams, plan, logs)
	clk.sleepFor(plan.warm)
	self0, err0 := procCPU(0)
	clk.sleepFor(plan.a)
	self1, err1 := procCPU(0)
	m0, err2 := k.d.scrape()
	clk.sleepFor(plan.end)
	m1, err3 := k.d.scrape()
	rss, err4 := procPeakRSS(k.d.pid())
	res := wait()
	k.close()
	if err := errors.Join(err0, err1, err2, err3, err4); err != nil {
		return nil, err
	}
	mismatch, fatal := sessionError(res)
	if fatal != nil {
		return nil, fatal
	}
	var inA, attempted, ok uint64
	var tracedRate float64 // requests per second over each connection's traced stretch
	for _, r := range res {
		inA, attempted, ok = inA+r.inA, attempted+r.attempted, ok+r.ok
		if r.tracedNs > 0 {
			tracedRate += float64(len(r.traced)) / (float64(r.tracedNs) / 1e9)
		}
	}
	if inA == 0 || tracedRate == 0 {
		return nil, fmt.Errorf("no responses in a traced-run window")
	}
	untracedRate := float64(inA) / (float64(seg) / 1e9)

	srvLogs, srvLevel, err := replayKVServer(cfg.seed, res, ids)
	srvMismatch, fatal := splitErrors(err)
	if fatal != nil {
		return nil, fatal
	}
	mapLogs, mapLevel, err := replaySimmap(cfg.seed, res, srvLogs, ids)
	mapMismatch, fatal := splitErrors(err)
	if fatal != nil {
		return nil, fatal
	}
	mismatch = errors.Join(mismatch, srvMismatch, mapMismatch)

	o := newLayerOutcome(mismatch, attempted, ok)
	o.setLayer("loadgen.cpu_us_per_op", float64(self1-self0)/1e3/float64(inA))
	o.coreLayer(m0, m1, "map")
	o.setLayer("server.rss_peak_mb", float64(rss)/(1<<20))
	o.setLayer("trace.overhead_ratio", tracedRate/untracedRate)
	o.setLayer("obs.record_ns", recordNs())

	all := append(append(append([]*spanLog{}, logs...), srvLogs...), mapLogs...)
	var spans []span
	for _, l := range all {
		spans = append(spans, l.spans...)
	}
	reqs := float64(srvLevel.requests)
	o.setLayer("wire.us_per_batch", (meanNs(spans, "client.batch")-meanNs(spans, "kvserver.serve_batch"))/1e3)
	srvNs, _ := total(spans, "kvserver.serve_batch")
	getNs, _ := total(spans, "simmap.mget")
	setNs, _ := total(spans, "simmap.mset")
	o.setLayer("kvserver.ns_per_req", float64(srvNs-getNs-setNs)/reqs)
	o.setLayer("kvserver.allocs_per_req",
		float64(srvLevel.after.allocObjects-srvLevel.before.allocObjects)/reqs-
			float64(mapLevel.after.allocObjects-mapLevel.before.allocObjects)/reqs)
	if mapLevel.getKeys > 0 {
		o.setLayer("simmap.mget_ns_per_key", float64(getNs)/float64(mapLevel.getKeys))
	}
	if mapLevel.setKeys > 0 {
		o.setLayer("simmap.mset_ns_per_key", float64(setNs)/float64(mapLevel.setKeys))
		o.setLayer("simmap.bytes_per_put",
			float64(mapLevel.after.allocBytes-mapLevel.before.allocBytes)/float64(mapLevel.setKeys))
	}
	o.setLayer("simmap.entries_per_stripe", mapLevel.entriesPerStripe)
	o.runtimeLayer(srvLevel.before, srvLevel.after, srvLevel.requests)
	o.setLayer("runtime.live_heap_mb", srvLevel.liveHeapMB)

	n, err := writeSpans(cfg.spansPath, all...)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	o.stamp["daemon"] = "simkvd"
	o.stamp["daemon_flags"] = kvFlags
	o.stamp["spans"] = map[string]any{"file": cfg.spansPath, "count": n}
	var traced int
	for _, r := range res {
		traced += len(r.tracedIDs)
	}
	o.stamp["traced_batches"] = traced
	o.stamp["untraced_ops_per_s"] = untracedRate
	o.stamp["traced_ops_per_s"] = tracedRate
	return o, nil
}

// kvLevel is what one in-process replay level measured.
type kvLevel struct {
	before, after    rtSnap
	requests         uint64
	getKeys, setKeys uint64
	entriesPerStripe float64
	liveHeapMB       float64
}

// replayKVServer replays each connection's traced batches through
// kvserver's ServeConn over net.Pipe, on a fresh preloaded server with the
// daemon's configuration.
func replayKVServer(seed uint64, res []kvConnResult, ids *spanIDs) ([]*spanLog, kvLevel, error) {
	var lv kvLevel
	srv := kvserver.New(kvClients, kvStripes, kvserver.WithPipeline(kvDepth))
	clk := clock{time.Now()}
	clients := make([]*kvClient, kvConns)
	pipes := make([]net.Conn, kvConns)
	var served sync.WaitGroup
	for i := range kvConns {
		cli, sv := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			srv.ServeConn(i, sv)
			sv.Close()
		}()
		pipes[i], clients[i] = cli, newKVClient(i, cli)
	}
	stop := func() {
		for _, p := range pipes {
			p.Close()
		}
		served.Wait()
	}
	if err := preloadAll(clk, seed, clients); err != nil {
		stop()
		return nil, lv, err
	}
	logs := make([]*spanLog, kvConns)
	errs := make([]error, kvConns)
	var wg sync.WaitGroup
	lv.before = readRuntime()
	for i, c := range clients {
		logs[i] = &spanLog{ids: ids}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := res[i]
			for j, parent := range r.tracedIDs {
				start, err := c.exchange(clk, r.traced[j*kvDepth:(j+1)*kvDepth])
				if err != nil {
					errs[i] = fmt.Errorf("kvserver replay: %w", err)
					return
				}
				logs[i].add("kvserver.serve_batch", uint64(i)<<32|uint64(j), parent, start, c.respAt[kvDepth-1])
			}
		}()
	}
	wg.Wait()
	lv.after = readRuntime()
	for _, r := range res {
		lv.requests += uint64(len(r.traced))
	}
	stop()
	lv.liveHeapMB = liveHeapMB(func() { srv, clients, pipes = nil, nil, nil })
	return logs, lv, errors.Join(errs...)
}

// replaySimmap applies each traced batch straight to a fresh preloaded
// simmap, split into the same-command runs kvserver's executor batches.
func replaySimmap(seed uint64, res []kvConnResult, parents []*spanLog, ids *spanIDs) ([]*spanLog, kvLevel, error) {
	var lv kvLevel
	m := simmap.New[string, uint64](kvClients, kvStripes)
	models := make([]kvModel, kvConns)
	for c := range kvConns {
		models[c] = make(kvModel, kvKeys)
		var keys []string
		var vals []uint64
		for k := c; k < kvKeys; k += kvConns {
			keys = append(keys, keyNames[k])
			vals = append(vals, preloadValue(seed, k))
			models[c][k] = preloadValue(seed, k)
		}
		if _, existed := m.MSet(c, keys, vals); slices.Contains(existed, true) {
			return nil, lv, mismatchError{fmt.Errorf("simmap preload: a key of connection %d existed before its first write", c)}
		}
	}
	lv.entriesPerStripe = float64(m.Len()) / float64(m.Stripes())
	clk := clock{time.Now()}
	logs := make([]*spanLog, kvConns)
	errs := make([]error, kvConns)
	var wg sync.WaitGroup
	var getKeys, setKeys [kvConns]uint64
	lv.before = readRuntime()
	for c := range kvConns {
		logs[c] = &spanLog{ids: ids}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = replayMapConn(clk, m, c, res[c], parents[c].spans, models[c], logs[c], &getKeys[c], &setKeys[c])
		}()
	}
	wg.Wait()
	lv.after = readRuntime()
	for c := range kvConns {
		lv.getKeys += getKeys[c]
		lv.setKeys += setKeys[c]
	}
	return logs, lv, errors.Join(errs...)
}

func replayMapConn(clk clock, m *simmap.Map[string, uint64], c int, r kvConnResult, parents []span,
	model kvModel, log *spanLog, getKeys, setKeys *uint64) error {
	keys := make([]string, 0, kvDepth)
	vals := make([]uint64, 0, kvDepth)
	for j := range r.tracedIDs {
		ops := r.traced[j*kvDepth : (j+1)*kvDepth]
		var parent uint64
		if j < len(parents) {
			parent = parents[j].ID
		}
		batch := uint64(c)<<32 | uint64(j)
		for i := 0; i < len(ops); {
			put := ops[i].put
			run := i
			keys, vals = keys[:0], vals[:0]
			for ; run < len(ops) && ops[run].put == put; run++ {
				keys = append(keys, keyNames[ops[run].key])
				vals = append(vals, ops[run].val)
			}
			t0 := clk.now()
			if put {
				prevs, existed := m.MSet(c, keys, vals)
				log.add("simmap.mset", batch, parent, t0, clk.now())
				*setKeys += uint64(len(keys))
				for x, op := range ops[i:run] {
					if !existed[x] || prevs[x] != model[op.key] {
						return mismatchError{fmt.Errorf("simmap replay: MSet %s: prev %d (existed %v), want %d",
							keyNames[op.key], prevs[x], existed[x], model[op.key])}
					}
					model[op.key] = op.val
				}
			} else {
				got, found := m.MGet(c, keys)
				log.add("simmap.mget", batch, parent, t0, clk.now())
				*getKeys += uint64(len(keys))
				for x, op := range ops[i:run] {
					if !found[x] || got[x] != model[op.key] {
						return mismatchError{fmt.Errorf("simmap replay: MGet %s: %d (found %v), want %d",
							keyNames[op.key], got[x], found[x], model[op.key])}
					}
				}
			}
			i = run
		}
	}
	return nil
}

// runIngestTraced is the ingest ladder: the paced stream sent to simingestd
// over TCP (client.batch per PUB batch), then the same schedule driven
// straight through an ingest.Pipeline with the daemon's configuration: the
// producer's AppendBatch, the drain loop's queue DequeueBatch and spool
// AppendBatch, the consumer's View().Read and the retention Runner's Pass.
func runIngestTraced(cfg *runConfig) (*outcome, error) {
	g, _, err := startIngest(cfg, true)
	if err != nil {
		return nil, err
	}
	defer g.close()
	seg := int64(float64(cfg.window) * tracedShare)
	if err := setDeadline(cfg.warmup+2*time.Duration(seg)+drainGrace, g.producer, g.consumer); err != nil {
		return nil, err
	}
	clk := clock{time.Now()}
	start := int64(20 * time.Millisecond)
	warm := start + int64(cfg.warmup)
	a, end := warm+seg, warm+2*seg
	sched := newSchedule(cfg.seed, start, end)
	type marks struct {
		self0, self1 time.Duration
		m0, m1       map[string]uint64
		rss          uint64
		err          error
	}
	mc := make(chan marks, 1)
	go func() {
		var m marks
		var errs [5]error
		clk.sleepFor(warm)
		m.self0, errs[0] = procCPU(0)
		clk.sleepFor(a)
		m.self1, errs[1] = procCPU(0)
		m.m0, errs[2] = g.d.scrape()
		clk.sleepFor(end)
		m.m1, errs[3] = g.d.scrape()
		m.rss, errs[4] = procPeakRSS(g.d.pid())
		m.err = errors.Join(errs[:]...)
		mc <- m
	}()
	run, err := runIngestSession(clk, sched, g.producer, g.consumer, ingestBacklog)
	mk := <-mc
	g.close()
	if err != nil {
		return nil, err
	}
	if mk.err != nil {
		return nil, mk.err
	}
	wA, wB := run.window(warm, a), run.window(a, end)
	if wA.acked == 0 || wB.acked == 0 {
		return nil, fmt.Errorf("no acknowledged events in a traced-run window")
	}
	ids := &spanIDs{}
	client := &spanLog{ids: ids}
	var clientIDs []uint64 // by batch index from the first traced batch
	first := -1
	for b := range sched.batches {
		due := sched.due(b)
		if due < a || due >= end || len(clientIDs) >= traceCap {
			continue
		}
		if first < 0 {
			first = b
		}
		last := run.ackAt[(b+1)*ingestBatch-1]
		if last == 0 {
			break
		}
		clientIDs = append(clientIDs, client.add("client.batch", uint64(b), 0, run.sentAt[b], last))
	}

	first = max(first, 0)
	lv, err := replayIngest(cfg.seed, seg, first, clientIDs, ids)
	if err != nil {
		return nil, err
	}
	mismatch := errors.Join(run.mismatch, lv.mismatch)
	o := newLayerOutcome(mismatch, run.published, run.ok)
	lateD, lagD, a2v := summarize(wA.late), summarize(wA.lag), summarize(wA.ackToVis)
	o.setLayer("loadgen.late_p50_us", lateD.P50us)
	o.setLayer("loadgen.late_p99_us", lateD.P99us)
	o.setLayer("loadgen.cpu_us_per_op", float64(mk.self1-mk.self0)/1e3/float64(wA.acked))
	o.setLayer("ingest.ack_to_visible_us", a2v.P50us)
	o.setLayer("ingest.visible_lag_p99_us", lagD.P99us)
	o.setLayer("ingest.retention_skipped", float64(run.skipped+lv.skipped))
	o.coreLayer(mk.m0, mk.m1, "ingest_queue", "ingest_spool")
	o.setLayer("server.rss_peak_mb", float64(mk.rss)/(1<<20))
	o.setLayer("trace.overhead_ratio", float64(wB.acked)/float64(wA.acked))
	o.setLayer("obs.record_ns", recordNs())

	var spans []span
	for _, l := range append([]*spanLog{client}, lv.logs...) {
		spans = append(spans, l.spans...)
	}
	o.setLayer("wire.us_per_batch", (meanNs(spans, "client.batch")-meanNs(spans, "ingest.append_batch"))/1e3)
	o.setLayer("ingest.append_batch_us", meanNs(spans, "ingest.append_batch")/1e3)
	if lv.drained > 0 {
		deq, _ := total(spans, "queue.dequeue_batch")
		app, _ := total(spans, "spool.append_batch")
		o.setLayer("queue.dequeue_ns_per_event", float64(deq)/float64(lv.drained))
		o.setLayer("spool.append_ns_per_event", float64(app)/float64(lv.drained))
	}
	if lv.read > 0 {
		rd, _ := total(spans, "spool.read")
		o.setLayer("spool.read_ns_per_event", float64(rd)/float64(lv.read))
	}
	o.setLayer("retention.pass_us", meanNs(spans, "retention.pass")/1e3)
	o.setLayer("retention.passes", float64(lv.passes))
	o.runtimeLayer(lv.before, lv.after, lv.events)
	o.setLayer("runtime.live_heap_mb", lv.liveHeapMB)

	n, err := writeSpans(cfg.spansPath, append([]*spanLog{client}, lv.logs...)...)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	o.stamp["daemon"] = "simingestd"
	o.stamp["daemon_flags"] = ingestFlags
	o.stamp["spans"] = map[string]any{"file": cfg.spansPath, "count": n}
	o.stamp["samples"] = map[string]any{"loadgen_late": lateD, "visible_lag": lagD, "ack_to_visible": a2v}
	o.stamp["pacer_realtime"] = run.pacedRT && lv.pacedRT
	return o, nil
}

// ingestLevel is what the in-process ingest replay measured.
type ingestLevel struct {
	logs                  []*spanLog
	before, after         rtSnap
	events, drained, read uint64
	passes, skipped       uint64
	liveHeapMB            float64
	pacedRT               bool
	mismatch              error
}

// replayIngest drives a fresh ingest.Pipeline configured as simingestd
// configures its partition (process ids 0..3 producers, 4 the drainer, 5
// retention) on the paced schedule for seg ns. Its batch b stands for batch
// first+b of the traced TCP stretch: spans carry that batch id, and
// ingest.append_batch links to client span parents[b].
func replayIngest(seed uint64, seg int64, first int, parents []uint64, ids *spanIDs) (ingestLevel, error) {
	var lv ingestLevel
	const producerID, drainID, retID = 0, ingestClients, ingestClients + 1
	p := ingest.New(ingestClients+2, ingest.Config{Batch: ingestBatch}) // spool defaults = simingestd's -seg 256 -ring 64
	ret := retention.NewRunner(p.Spool(), retID, retention.Policy{MaxEvents: ingestRetain})
	clk := clock{time.Now()}
	start := int64(20 * time.Millisecond)
	sched := newSchedule(seed, start, start+seg)
	total := uint64(sched.events())
	prodLog, drainLog, readLog, retLog := &spanLog{ids: ids}, &spanLog{ids: ids}, &spanLog{ids: ids}, &spanLog{ids: ids}
	lv.logs = []*spanLog{prodLog, drainLog, readLog, retLog}
	chk := newEventChecker(sched.payload)
	var prodErr error
	var drained, read uint64
	stopRet := make(chan struct{})
	var wg sync.WaitGroup
	deadline := sched.due(sched.batches) + int64(drainGrace)
	var consumed atomic.Bool
	tick := make(chan struct{}, 1)
	payloads := make([]uint64, ingestBatch)
	var seqs []uint64
	send := func(b int) bool {
		for i := range payloads {
			payloads[i] = sched.payloadOf(b)
		}
		t0 := clk.now()
		seqs = p.AppendBatch(producerID, payloads, seqs[:0])
		t1 := clk.now()
		var parent uint64
		if b < len(parents) {
			parent = parents[b]
		}
		prodLog.add("ingest.append_batch", uint64(first+b), parent, t0, t1)
		if seqs[0] != uint64(b*ingestBatch+1) || seqs[len(seqs)-1] != uint64((b+1)*ingestBatch) {
			prodErr = fmt.Errorf("AppendBatch of batch %d stamped seqs %d..%d", b, seqs[0], seqs[len(seqs)-1])
			return false
		}
		return true
	}
	lv.before = readRuntime()
	wg.Add(4)
	go func() {
		defer wg.Done()
		lv.pacedRT = pace(clk, sched, deadline, send, tick, consumed.Load)
	}()
	go func() { // drainer: simingestd's drain loop, split at the stage boundary
		defer wg.Done()
		var evs []ingest.Event
		var offs []uint64
		for drained < total {
			t0 := clk.now()
			evs = p.Queue().DequeueBatch(drainID, 128, evs[:0])
			t1 := clk.now()
			if len(evs) == 0 {
				if t1 > deadline {
					return
				}
				<-time.After(200 * time.Microsecond)
				continue
			}
			batch := uint64(first) + (evs[0].Seq-1)/ingestBatch
			drainLog.add("queue.dequeue_batch", batch, 0, t0, t1)
			offs = p.Spool().AppendBatch(drainID, evs, offs[:0])
			drainLog.add("spool.append_batch", batch, 0, t1, clk.now())
			drained += uint64(len(evs))
		}
	}()
	go func() { // consumer
		defer wg.Done()
		defer close(stopRet)
		defer consumed.Store(true)
		var cursor uint64
		var out []ingest.Event
		for full := false; cursor < total && clk.now() < deadline; full = len(out) == pollMax {
			if !full {
				if _, ok := <-tick; !ok {
					return
				}
			}
			t0 := clk.now()
			evs, nextOff, skipped := p.View().Read(cursor, pollMax, out[:0])
			t1 := clk.now()
			out = evs
			if len(evs) > 0 {
				readLog.add("spool.read", uint64(first)+(evs[0].Seq-1)/ingestBatch, 0, t0, t1)
			}
			chk.skip(skipped)
			for _, ev := range evs {
				chk.observe(int64(ev.Producer), ev.Seq, ev.Payload)
			}
			read += uint64(len(evs))
			cursor = nextOff
		}
	}()
	go func() { // retention, on simingestd's default 50 ms cadence
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopRet:
				return
			case <-tick.C:
				t0 := clk.now()
				ret.Pass()
				retLog.add("retention.pass", 0, 0, t0, clk.now())
			}
		}
	}()
	wg.Wait()
	lv.after = readRuntime()
	lv.events, lv.drained, lv.read = total, drained, read
	lv.passes, lv.skipped = ret.Passes(), chk.skipped
	_, _, err := chk.finish(total)
	lv.mismatch = errors.Join(prodErr, err)
	lv.liveHeapMB = liveHeapMB(func() { p, ret = nil, nil })
	return lv, nil
}
