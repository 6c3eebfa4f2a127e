// Command sabrebench is the repository's end-to-end benchmark. Each run
// boots fresh sabred child processes on loopback, drives one workload
// from this process through at most two HTTP connections, checks every
// answer with code of its own, and prints the metrics as JSON. With
// -trace 1 it instead replays the workload's requests in-process
// through the layers' public functions, recording a span around each
// call, and prints the per-layer metrics.
//
//	bash sabrebench/run.sh --workload table2-large --seed 1 --seconds 30 --trace 0
//
// run.sh builds sabred and this command from the checkout first. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: table2-large, serve-mix or stream-1m")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced in-process replay printing per-layer metrics")
		sabred  = flag.String("sabred", ".bench_build/bin/sabred", "sabred binary")
		outDir  = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	// The client side stays within the host's CPUs, at most two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("bad -trace %d (0|1)", *trace))
	}
	w, err := newWorkload(*name, *seed, 1)
	if err != nil {
		fatal(err)
	}

	calib := hostCalibMs()
	stamp := map[string]any{
		"workload":      w.name,
		"seed":          *seed,
		"seconds":       *seconds,
		"trace":         *trace,
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"commit":        commit(),
		"source_sha256": sourceHash(),
		"input_hash":    w.inputHash(),
		"host.calib_ms": calib,
	}
	emit("stamp", stamp)

	var (
		metrics           map[string]metric
		attempted, failed int
		problems          []string
	)
	if *trace == 1 {
		r, err := runTrace(w, *sabred, *seed, *outDir)
		if err != nil {
			fatal(err)
		}
		metrics, attempted, failed, problems = r.metrics, r.attempted, r.failed, r.problems
		metrics["host.calib_ms"] = metric{calib, "ms"}
		emit("layer_source", r.source)
	} else {
		r, err := runE2E(w, *sabred, *seconds, *seed)
		if err != nil {
			fatal(err)
		}
		metrics, attempted, failed, problems = r.metrics, r.attempted, r.failed, r.problems
		emit("inputs", r.props)
		if r.table2 != nil {
			emit("table2_added_gates", r.table2)
		}
		// error_frac is printed with the metrics but carried by the
		// result line's "attempted" and "failed": it is 0 on correct
		// code, and a bound relative to a zero median bounds nothing.
		fmt.Printf("%-28s %14.6g %s\n", "error_frac", ratio(failed, attempted), "ratio")
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("%-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, p := range problems {
		logf("check failed: %s", p)
	}
	if err := checkDeclared(metrics, *trace == 1); err != nil {
		fatal(err)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if failed > 0 {
		os.Exit(1)
	}
}

// checkDeclared fails the run when the metrics it measured are not
// exactly the ones BENCHMARK.json declares for the mode.
func checkDeclared(got map[string]metric, traced bool) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json, measured %+v", m.Name, m.Unit, g)
		}
	}
	return nil
}

// emit prints one labelled JSON line of run context.
func emit(label string, v any) {
	b, err := json.Marshal(map[string]any{label: v})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sabrebench: %v\n", err)
	os.Exit(1)
}

// commit is the checkout's git commit, when it is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the checkout's Go sources and module files, so a
// run names the code it measured even outside git.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostCalibMs times a fixed CPU kernel (sorting a seeded million-element
// slice), median of five: a host reference printed beside every run.
func hostCalibMs() float64 {
	base := make([]uint64, 1<<20)
	rng := rand.New(rand.NewSource(42))
	for i := range base {
		base[i] = rng.Uint64()
	}
	var ms []float64
	work := make([]uint64, len(base))
	for i := 0; i < 5; i++ {
		copy(work, base)
		start := time.Now()
		slices.Sort(work)
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms)
}
