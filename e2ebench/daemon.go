package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running simkvd or simingestd process.
type daemon struct {
	cmd         *exec.Cmd
	addr        string // bound TCP address
	metricsAddr string // bound /metrics address, "" unless requested
	stdoutDone  chan struct{}
	stopOnce    sync.Once
}

// daemonProcs tracks every daemon this process started, so an error path or
// a signal still stops and reaps them all.
var daemonProcs struct {
	sync.Mutex
	live map[*daemon]struct{}
}

// startDaemon execs bin with args (plus -addr and, if metrics, -metrics-addr
// on ephemeral loopback ports) and waits until it prints its listening
// address. It returns the time from exec to listening.
func startDaemon(bin string, args []string, metrics bool, gomaxprocs int) (*daemon, time.Duration, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	if metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = os.Stderr
	// The kernel kills the daemon if the thread that started it dies; the
	// pacing threads unlock before they exit (see preciseThread), so Go never
	// retires a thread that started a daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	d := &daemon{cmd: cmd, stdoutDone: make(chan struct{})}
	daemonProcs.Lock()
	if daemonProcs.live == nil {
		daemonProcs.live = map[*daemon]struct{}{}
	}
	daemonProcs.live[d] = struct{}{}
	daemonProcs.Unlock()

	type ready struct {
		addr, metrics string
		at            time.Duration
	}
	readyc := make(chan ready, 1)
	go func() {
		defer close(d.stdoutDone)
		sc := bufio.NewScanner(out)
		var r ready
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, " listening on "); ok && r.addr == "" {
				r.addr, _, _ = strings.Cut(rest, " ")
				r.at = time.Since(t0)
			}
			if _, rest, ok := strings.Cut(line, " metrics on http://"); ok {
				r.metrics = strings.TrimSuffix(rest, "/metrics")
			}
			if !sent && r.addr != "" && (!metrics || r.metrics != "") {
				readyc <- r
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, out) // keep the pipe drained until exit
	}()
	select {
	case r := <-readyc:
		d.addr, d.metricsAddr = r.addr, r.metrics
		return d, r.at, nil
	case <-d.stdoutDone:
		d.stop()
		return nil, 0, fmt.Errorf("%s exited before listening", filepath.Base(bin))
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("%s did not listen within 20s", filepath.Base(bin))
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop interrupts the daemon (its graceful shutdown path), kills it if it has
// not exited within five seconds, and reaps it.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(os.Interrupt) // fails only if it already exited; Wait reaps either way
		exited := make(chan struct{})
		go func() {
			_ = d.cmd.Wait() // an interrupted daemon exits non-zero by design
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-exited
		}
		daemonProcs.Lock()
		delete(daemonProcs.live, d)
		daemonProcs.Unlock()
	})
}

// stopAllDaemons stops every daemon still running.
func stopAllDaemons() {
	daemonProcs.Lock()
	ds := make([]*daemon, 0, len(daemonProcs.live))
	for d := range daemonProcs.live {
		ds = append(ds, d)
	}
	daemonProcs.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// scrape fetches the daemon's counters from /metrics?format=json.
func (d *daemon) scrape() (map[string]uint64, error) {
	resp, err := http.Get("http://" + d.metricsAddr + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return doc.Counters, nil
}

// counterDelta sums, over every series of the named counter families (any
// label set), the change from before to after.
func counterDelta(before, after map[string]uint64, families ...string) uint64 {
	var d uint64
	for name, v := range after {
		base, _, _ := strings.Cut(name, "{")
		for _, f := range families {
			if base == f {
				d += v - before[name]
			}
		}
	}
	return d
}
