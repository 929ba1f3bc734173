package main

import (
	"strings"
	"testing"
)

func TestKVModelRejectsWrongValue(t *testing.T) {
	m := make(kvModel, kvKeys)
	if err := m.check(kvOp{load: true, key: 7, val: 70}, []byte("OK NIL")); err != nil {
		t.Fatal(err)
	}
	if err := m.check(kvOp{key: 7}, []byte("VAL 70")); err != nil {
		t.Fatal(err)
	}
	if err := m.check(kvOp{put: true, key: 7, val: 71}, []byte("OK 70")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op   kvOp
		resp string
	}{
		{kvOp{key: 7}, "VAL 70"},                     // stale: the PUT above made it 71
		{kvOp{key: 7}, "NIL"},                        // lost key
		{kvOp{key: 7}, "VAL 71x"},                    // corrupt digits
		{kvOp{put: true, key: 7, val: 72}, "OK NIL"}, // PUT that lost the previous value
		{kvOp{load: true, key: 8, val: 1}, "OK 5"},   // preload onto a key that existed
	} {
		err := m.check(c.op, []byte(c.resp))
		if err == nil {
			t.Errorf("%s -> %q accepted", reqString(c.op), c.resp)
			continue
		}
		// The report names both the request and the response.
		if msg := err.Error(); !strings.Contains(msg, reqString(c.op)) || !strings.Contains(msg, c.resp) {
			t.Errorf("report %q does not show request and response", msg)
		}
	}
	if m[7] != 71 {
		t.Errorf("model[7] = %d after rejected writes, want 71", m[7])
	}
}

func payloadOfSeq(seq uint64) uint64 { return seq * 1000 }

func TestEventCheckerAcceptsExactlyOnceInOrder(t *testing.T) {
	c := newEventChecker(payloadOfSeq)
	for seq := uint64(1); seq <= 5; seq++ {
		if !c.observe(3, seq, payloadOfSeq(seq)) {
			t.Fatalf("seq %d rejected", seq)
		}
	}
	ok, missed, err := c.finish(5)
	if err != nil || ok != 5 || missed != 0 {
		t.Errorf("finish = %d ok, %d missed, %v; want 5, 0, nil", ok, missed, err)
	}
}

func TestEventCheckerRejectsWrongPayload(t *testing.T) {
	c := newEventChecker(payloadOfSeq)
	c.observe(0, 1, 1000)
	if c.observe(0, 2, 2001) {
		t.Error("corrupt payload counted as delivered")
	}
	if _, _, err := c.finish(2); err == nil || !strings.Contains(err.Error(), "payload 2001") {
		t.Errorf("finish error = %v, want a payload mismatch", err)
	}
}

func TestEventCheckerRejectsDuplicate(t *testing.T) {
	c := newEventChecker(payloadOfSeq)
	c.observe(0, 1, 1000)
	c.observe(0, 2, 2000)
	if c.observe(0, 2, 2000) {
		t.Error("duplicate counted as delivered")
	}
	ok, _, err := c.finish(2)
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("finish error = %v, want a duplicate", err)
	}
	if ok != 2 {
		t.Errorf("ok = %d, want 2", ok)
	}
}

func TestEventCheckerRejectsMissing(t *testing.T) {
	// A gap inside the stream and a tail never delivered.
	c := newEventChecker(payloadOfSeq)
	c.observe(0, 1, 1000)
	c.observe(0, 3, 3000)
	ok, missed, err := c.finish(4)
	if err == nil || !strings.Contains(err.Error(), "never delivered") {
		t.Errorf("finish error = %v, want missing events", err)
	}
	if ok != 2 || missed != 2 {
		t.Errorf("finish = %d ok, %d missed; want 2, 2", ok, missed)
	}
}

func TestEventCheckerCountsReportedSkipsAsMisses(t *testing.T) {
	// Events the server reports expired by retention are misses, not errors.
	c := newEventChecker(payloadOfSeq)
	c.observe(0, 1, 1000)
	c.skip(2)
	c.observe(0, 4, 4000)
	ok, missed, err := c.finish(4)
	if err != nil || ok != 2 || missed != 2 {
		t.Errorf("finish = %d ok, %d missed, %v; want 2, 2, nil", ok, missed, err)
	}
}

func TestFieldsParsesProtocolLines(t *testing.T) {
	var f [4]uint64
	if !fields([]byte("EVT 12 0 13 99"), "EVT ", f[:4]) || f != [4]uint64{12, 0, 13, 99} {
		t.Errorf("EVT parse = %v", f)
	}
	for _, bad := range []string{"EVT 12 0 13", "EVT 12 0 13 99 5", "EVT 12  0 13 99", "END 1 2", "EVT 1 2 3 x"} {
		if fields([]byte(bad), "EVT ", f[:4]) {
			t.Errorf("fields accepted %q", bad)
		}
	}
}
