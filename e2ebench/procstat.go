package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// clockTicksPerSec is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for every architecture it exports /proc on.
const clockTicksPerSec = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may hold
// spaces or parentheses, so fields are counted from the last ')': the field
// after it is field 3 (state), which puts utime (field 14) and stime (field
// 15) at offsets 11 and 12.
func parseStatCPU(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no ')' after the command name")
	}
	f := bytes.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// procCPU returns the user+system CPU time process pid has used so far
// (pid 0 reads the benchmark's own process).
func procCPU(pid int) (time.Duration, error) {
	name := "/proc/self/stat"
	if pid != 0 {
		name = fmt.Sprintf("/proc/%d/stat", pid)
	}
	b, err := os.ReadFile(name)
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(b)
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / clockTicksPerSec, nil
}

// parseVmHWM returns the peak resident set size, in bytes, from the contents
// of /proc/<pid>/status.
func parseVmHWM(status []byte) (uint64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procPeakRSS returns process pid's peak resident set size in bytes.
func procPeakRSS(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}
