// Command e2ebench drives simkvd and simingestd over loopback TCP from one
// load-generator process, checks every response, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced ladder run)
// as one JSON object on the last line of standard output. See README.md.
//
// Run it through run.sh from the repository root, which builds the daemons
// and this command first:
//
//	bash e2ebench/run.sh --workload kv-read-mostly --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	workload    string
	seed        uint64
	window      time.Duration // measured window (untraced) or whole traced session
	warmup      time.Duration
	setups      int // daemons set up (and timed) per untraced run
	binDir      string
	spansPath   string
	daemonProcs int // GOMAXPROCS given to the daemon
}

func (c *runConfig) bin(name string) string { return filepath.Join(c.binDir, name) }

type workload struct {
	setups int // set-ups per untraced run; their median is setup_s
	// paced is set when the load generator runs an open-loop schedule. Its
	// pacing thread holds a P while it sleeps in nanosleep, so the load
	// generator then gets one P beyond one per CPU.
	paced  bool
	run    func(*runConfig) (*outcome, error)
	traced func(*runConfig) (*outcome, error)
}

// loadgenProcs is the load generator's GOMAXPROCS for w.
func (w workload) loadgenProcs() int {
	if w.paced {
		return runtime.NumCPU() + 1
	}
	return runtime.NumCPU()
}

var workloads = map[string]workload{
	"kv-read-mostly": {setups: 5,
		run:    func(c *runConfig) (*outcome, error) { return runKV(c, 5) },
		traced: func(c *runConfig) (*outcome, error) { return runKVTraced(c, 5) }},
	"kv-update-heavy": {setups: 5,
		run:    func(c *runConfig) (*outcome, error) { return runKV(c, 50) },
		traced: func(c *runConfig) (*outcome, error) { return runKVTraced(c, 50) }},
	"ingest-paced": {setups: 9, paced: true, run: runIngest, traced: runIngestTraced},
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result: the contract's last line plus a stamp line.
type outcome struct {
	mismatch          error
	attempted, failed uint64
	metrics           map[string]metric
	stamp             map[string]any
}

func newOutcome(mismatch error, attempted, ok uint64) *outcome {
	return &outcome{mismatch: mismatch, attempted: attempted, failed: attempted - ok,
		metrics: map[string]metric{}, stamp: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: kv-read-mostly, kv-update-heavy or ingest-paced")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 10, "measured window in seconds (the whole session when tracing)")
		trace   = flag.Int("trace", 0, "1 runs the traced ladder and prints per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run every workload (or --workload) briefly, untraced and traced; exit non-zero on any failure")
		binDir  = flag.String("bin", ".bench_build", "directory holding the simkvd and simingestd binaries")
		spans   = flag.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	)
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		stopAllDaemons()
		fmt.Fprintln(os.Stderr, "e2ebench: stopped by", s)
		os.Exit(1)
	}()
	defer stopAllDaemons()

	if *smoke {
		return runSmoke(*name, *seed, *binDir)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	cfg := &runConfig{
		workload: *name, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		warmup: time.Second, setups: w.setups, binDir: *binDir, spansPath: *spans,
		daemonProcs: runtime.NumCPU(),
	}
	if cfg.spansPath == "" {
		cfg.spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	}
	runtime.GOMAXPROCS(w.loadgenProcs())
	f := w.run
	if *trace == 1 {
		f = w.traced
	}
	o, err := f(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return report(cfg, o, *trace == 1)
}

// report prints the stamp line and the result line; a mismatch also goes to
// standard error and makes the exit code 1.
func report(cfg *runConfig, o *outcome, traced bool) int {
	o.stamp["workload"] = cfg.workload
	o.stamp["seed"] = cfg.seed
	o.stamp["traced"] = traced
	o.stamp["commit"] = commitID()
	o.stamp["tree_sha256"] = sourceDigest()
	o.stamp["go"] = runtime.Version()
	o.stamp["nproc"] = runtime.NumCPU()
	o.stamp["loadgen_gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.stamp["daemon_gomaxprocs"] = cfg.daemonProcs
	o.stamp["window_s"] = cfg.window.Seconds()
	o.stamp["warmup_s"] = cfg.warmup.Seconds()
	stamp, err := json.Marshal(map[string]any{"stamp": o.stamp})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: stamp:", err)
		return 1
	}
	fmt.Println(string(stamp))
	if o.mismatch != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: MISMATCH:", o.mismatch)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.mismatch == nil, o.attempted, o.failed, o.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: result:", err)
		return 1
	}
	fmt.Println(string(line))
	if o.mismatch != nil {
		return 1
	}
	return 0
}

// runSmoke runs each workload briefly, untraced and traced, and fails on any
// error or mismatch.
func runSmoke(only string, seed uint64, binDir string) int {
	names := []string{"kv-read-mostly", "kv-update-heavy", "ingest-paced"}
	if only != "" {
		if _, ok := workloads[only]; !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", only)
			return 2
		}
		names = []string{only}
	}
	for _, name := range names {
		w := workloads[name]
		runtime.GOMAXPROCS(w.loadgenProcs())
		for _, traced := range []bool{false, true} {
			cfg := &runConfig{
				workload: name, seed: seed, window: 1500 * time.Millisecond, warmup: 300 * time.Millisecond,
				setups: 1, binDir: binDir, daemonProcs: runtime.NumCPU(),
				spansPath: filepath.Join(".bench_build", "spans", "smoke-"+name+".jsonl"),
			}
			f := w.run
			if traced {
				f = w.traced
			}
			o, err := f(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: smoke %s traced=%v: %v\n", name, traced, err)
				return 1
			}
			if code := report(cfg, o, traced); code != 0 {
				return code
			}
		}
	}
	fmt.Fprintln(os.Stderr, "e2ebench: smoke ok")
	return 0
}

// commitID returns the checked-out commit when the working directory is a
// git checkout, read from .git without running git.
func commitID() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (not a git checkout; see tree_sha256)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs") // absent when every ref is loose
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown (" + ref + ")"
}

// sourceDigest hashes go.mod and every file under cmd/ and internal/: the
// code the daemons are built from, identified even outside a git checkout.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				files = append(files, path)
			}
			return nil // an unreadable entry just drops out of the digest
		})
	}
	slices.Sort(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
