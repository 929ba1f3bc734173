package main

import "fmt"

// kvOp is one generated key-value request. load marks a preload PUT, which
// must find the key absent.
type kvOp struct {
	put  bool
	load bool
	key  int32
	val  uint64
}

// kvModel is a connection's exact model of the keys it owns: model[k] is the
// value key k must hold. Other connections never write those keys, so every
// response to this connection is predictable.
type kvModel []uint64

// check verifies one response line (without its newline) against the model
// and, for a PUT, applies the write to the model. The matching path does not
// allocate, so the in-process replay's allocation counts are the server's.
func (m kvModel) check(op kvOp, resp []byte) error {
	var prefix string
	switch {
	case op.load:
		if string(resp) != "OK NIL" {
			return fmt.Errorf("%s: got %q, want %q", reqString(op), resp, "OK NIL")
		}
		m[op.key] = op.val
		return nil
	case op.put:
		prefix = "OK "
	default:
		prefix = "VAL "
	}
	if v, ok := parseUintAfter(resp, prefix); !ok || v != m[op.key] {
		return fmt.Errorf("%s: got %q, want %q", reqString(op), resp, fmt.Sprintf("%s%d", prefix, m[op.key]))
	}
	if op.put {
		m[op.key] = op.val
	}
	return nil
}

// parseUintAfter parses the decimal uint64 that follows prefix and fills
// the rest of b.
func parseUintAfter(b []byte, prefix string) (uint64, bool) {
	if len(b) <= len(prefix) || len(b)-len(prefix) > 20 || string(b[:len(prefix)]) != prefix {
		return 0, false
	}
	var v uint64
	for _, c := range b[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func reqString(op kvOp) string {
	if op.put || op.load {
		return fmt.Sprintf("PUT %s %d", keyNames[op.key], op.val)
	}
	return "GET " + keyNames[op.key]
}

// eventChecker verifies what one consumer saw of the producers' streams:
// every event exactly once, in per-producer sequence order, with the payload
// its producer sent. A gap in a producer's sequence is a miss; it is a
// correctness failure unless the server reported that many events skipped
// by retention.
type eventChecker struct {
	payload func(seq uint64) uint64 // payload the producer sent with its seq-th event
	next    map[int64]uint64        // producer → next expected seq (from 1)
	ok      uint64                  // events seen once, in order, intact
	gaps    uint64                  // events jumped over in some producer's sequence
	skipped uint64                  // events the server reported lost to retention
	err     error                   // first duplicate, reordering or corruption
}

func newEventChecker(payload func(seq uint64) uint64) *eventChecker {
	return &eventChecker{payload: payload, next: map[int64]uint64{}}
}

// observe records one event as the consumer read it. It reports whether the
// event counts as correctly delivered.
func (c *eventChecker) observe(producer int64, seq, payload uint64) bool {
	next, seen := c.next[producer]
	if !seen {
		next = 1
	}
	switch {
	case seq < next:
		c.fail(fmt.Errorf("event producer=%d seq=%d delivered twice or out of order (next expected seq %d)",
			producer, seq, next))
		return false
	case seq > next:
		c.gaps += seq - next
	}
	c.next[producer] = seq + 1
	if want := c.payload(seq); payload != want {
		c.fail(fmt.Errorf("event producer=%d seq=%d: payload %d, want %d", producer, seq, payload, want))
		return false
	}
	c.ok++
	return true
}

// skip records events the server reported lost to retention.
func (c *eventChecker) skip(n uint64) { c.skipped += n }

func (c *eventChecker) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// finish closes the check once published events have all been attempted:
// it returns the events delivered correctly, the events missed (gaps plus
// never-seen tails), and an error for any duplicate, reordering, corrupt
// payload or loss the server did not report.
func (c *eventChecker) finish(published uint64) (ok, missed uint64, err error) {
	var last uint64
	for _, next := range c.next {
		last += next - 1
	}
	missed = c.gaps
	if published > last {
		missed += published - last
	}
	if c.err != nil {
		return c.ok, missed, c.err
	}
	if missed > c.skipped {
		return c.ok, missed, fmt.Errorf("%d of %d published events never delivered (server reported %d skipped by retention)",
			missed, published, c.skipped)
	}
	return c.ok, missed, nil
}
