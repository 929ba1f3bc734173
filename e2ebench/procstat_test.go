package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (sim kvd) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 6 0 100 0 0"
	ticks, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 325 {
		t.Errorf("utime+stime = %d ticks, want 325", ticks)
	}
	for _, bad := range []string{"4242 sim S 1 2 3", "4242 (simkvd) S 1 2 3", "4242 (simkvd) S 1 2 3 4 5 6 7 8 9 10 x 0"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestProcCPUSelfAdvances(t *testing.T) {
	c0, err := procCPU(0)
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
		x = mix64(x)
	}
	c1, err := procCPU(0)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= c0 || x == 0 {
		t.Errorf("own CPU time did not advance over 100ms of spinning: %v -> %v", c0, c1)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsimkvd\nVmPeak:\t  900000 kB\nVmHWM:\t   14336 kB\nVmRSS:\t   12000 kB\n"
	b, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if b != 14336<<10 {
		t.Errorf("VmHWM = %d bytes, want %d", b, 14336<<10)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
	self, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if b, err := parseVmHWM(self); err != nil || b == 0 {
		t.Errorf("own VmHWM = %d, %v", b, err)
	}
}
