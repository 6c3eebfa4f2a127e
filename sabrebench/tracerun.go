package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/qasm"
)

// Sizes of the traced run. The workload's own replay is this long; the
// layers it does not reach are measured on a short replay of the
// workload that does (mini*).
const (
	traceServeRequests = 3000
	miniServeRequests  = 400
	miniTable2Keys     = 4
	miniStreamScale    = 0.1
	overheadPairs      = 4  // daemon/untraced/traced rounds behind sabred.self_ms_p50 and trace.overhead_frac; even, so each side goes first equally often
	probeTrialKeys     = 16 // serve-mix keys whose trials are probed
)

// traceResult is what a traced run measured.
type traceResult struct {
	tally
	metrics map[string]metric
	source  map[string]string // metric -> replay it came from
}

func (r *traceResult) set(name string, v float64, unit, source string) {
	if _, ok := r.metrics[name]; ok {
		return
	}
	r.metrics[name] = metric{v, unit}
	r.source[name] = source
}

// traceRequests is the request list a traced replay serves.
func traceRequests(w *workload, mini bool) []request {
	n := 1
	switch w.name {
	case "table2-large":
		n = w.pass
		if mini {
			// The smallest circuits of the first pass keep the mini replay short.
			var reqs []request
			for i := 0; i < w.pass; i++ {
				reqs = append(reqs, w.at(i))
			}
			sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].key.in.gates < reqs[b].key.in.gates })
			return reqs[:miniTable2Keys]
		}
	case "serve-mix":
		n = traceServeRequests
		if mini {
			n = miniServeRequests
		}
	}
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = w.at(i)
	}
	return reqs
}

// runTrace measures the per-layer metrics. The workload's requests go,
// overheadPairs times, through a fresh daemon and then in-process
// through the layers' public functions untraced and traced (alternating
// which goes first, so host drift and warm-up favour neither); then
// through sequential probes.
func runTrace(w *workload, bin string, seed int64, outDir string) (*traceResult, error) {
	res := &traceResult{metrics: map[string]metric{}, source: map[string]string{}}
	reqs := traceRequests(w, false)
	spanFile := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := os.Remove(spanFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	selfMs := make([][]float64, len(reqs))
	var ratios []float64
	var traced *replayRun
	for p := 0; p < overheadPairs; p++ {
		d, _, err := bootReady(w, bin)
		if err != nil {
			return nil, err
		}
		daemonAns := make([]answer, len(reqs))
		closedLoops(w.conns, listClaim(len(reqs)), func(i int) {
			a := d.send(context.Background(), reqs[i], w.stream)
			a.body = nil // only the digest is compared
			daemonAns[i] = a
		})
		d.stop()
		var untraced *replayRun
		for _, t := range []bool{p%2 == 1, p%2 == 0} {
			run, err := replayOnce(w, reqs, t)
			if err != nil {
				return nil, err
			}
			if t {
				traced = run
			} else {
				untraced = run
			}
		}
		ratios = append(ratios, traced.wall.Seconds()/untraced.wall.Seconds()-1)
		logf("round %d: in-process replay untraced %.3fs, traced %.3fs", p, untraced.wall.Seconds(), traced.wall.Seconds())
		// The same request must route to the same bytes on both paths.
		owners := digestOwners{}
		for i := range reqs {
			res.attempted++
			a := daemonAns[i]
			if a.err == nil {
				if err := owners.add(a.digest, reqs[i].key.in.name); err != nil {
					res.fail("%v", err)
					continue
				}
			}
			switch {
			case a.err != nil:
				res.fail("daemon request %d: %v", i, a.err)
			case traced.served[i].err != nil || untraced.served[i].err != nil:
				res.fail("in-process request %d: %v %v", i, traced.served[i].err, untraced.served[i].err)
			case a.digest != traced.served[i].digest:
				res.fail("request %d (%s): in-process output differs from the daemon's", i, reqs[i].key.in.name)
			default:
				selfMs[i] = append(selfMs[i], float64(a.lat-untraced.served[i].dur)/1e6)
			}
		}
	}
	var self []float64
	for _, xs := range selfMs {
		if len(xs) > 0 {
			self = append(self, median(xs))
		}
	}
	sort.Float64s(self)
	res.set("sabred.self_ms_p50", percentile(self, 0.5), "ms", w.name)
	res.set("trace.overhead_frac", median(ratios), "ratio", w.name)
	lt, err := recordLayers(w, reqs, traced, res, w.name, spanFile)
	if err != nil {
		return nil, err
	}
	res.set("trace.unattributed_frac", float64(lt.rootSelf)/float64(lt.root), "ratio", w.name)

	// Layers this workload does not reach, from short traced replays of
	// the workloads that do.
	for _, name := range workloadNames {
		if name == w.name {
			continue
		}
		mw, err := newWorkload(name, seed, miniStreamScale)
		if err != nil {
			return nil, err
		}
		mreqs := traceRequests(mw, true)
		run, err := replayOnce(mw, mreqs, true)
		if err != nil {
			return nil, err
		}
		if _, err := recordLayers(mw, mreqs, run, res, "mini:"+name, spanFile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayRun is one in-process replay of a request list.
type replayRun struct {
	served []served
	wall   time.Duration
	tr     *tracer // nil when untraced
	stats  batch.Stats
}

// replayOnce serves reqs in-process on a fresh engine and queue.
func replayOnce(w *workload, reqs []request, traced bool) (*replayRun, error) {
	run := &replayRun{}
	if traced {
		run.tr = &tracer{t0: time.Now()}
	}
	s, err := newInproc(w, run.tr)
	if err != nil {
		return nil, err
	}
	run.served, run.wall = replay(s, reqs)
	run.stats = s.eng.Stats()
	s.close()
	return run, nil
}

// recordLayers records into res the layer metrics a traced replay
// reaches, runs the probes, and appends its spans to spanFile.
func recordLayers(w *workload, reqs []request, run *replayRun, res *traceResult, source, spanFile string) (layerTimes, error) {
	if err := writeSpans(spanFile, source, run.tr.spans); err != nil {
		return layerTimes{}, err
	}
	reqGates := map[int]int{}
	for i, r := range reqs {
		reqGates[i] = r.key.in.gates
		if err := run.served[i].err; err != nil {
			res.fail("%s request %d: %v", source, i, err)
		}
	}
	lt := aggregate(run.tr.spans, reqGates)

	perGate := func(metricName, span string) {
		if v, ok := lt.nsPerGate(span); ok {
			res.set(metricName, v, "ns/gate", source)
		}
	}
	p50 := func(metricName, span string) {
		if v, ok := lt.p50ms(span); ok {
			res.set(metricName, v, "ms", source)
		}
	}
	perGate("qasm.parse_ns_per_gate", "qasm.parse")
	perGate("qasm.format_ns_per_gate", "qasm.format")
	perGate("qasm.scan_ns_per_gate", "qasm.scan")
	perGate("qasm.stream_write_ns_per_gate", "qasm.stream_write")
	perGate("core.stream_ns_per_gate", "core.stream")
	perGate("opt.peephole_ns_per_gate", "opt.peephole")
	perGate("transpile.basis_ns_per_gate", "transpile.basis")
	perGate("sched.asap_ns_per_gate", "sched.asap")
	perGate("verify.compliance_ns_per_gate", "verify.compliance")
	perGate("pipeline.measure_ns_per_gate", "pipeline.measure")
	perGate("batch.key_ns_per_gate", "batch.key")
	perGate("metrics.compare_ns_per_gate", "metrics.compare")
	perGate("sabred.encode_ns_per_gate", "sabred.encode")
	p50("pipeline.route_ms_p50", "pipeline.route")
	p50("batch.submit_ms_p50", "batch.submit")

	var in, out, waits []float64
	var maxWindow, windowBytes float64
	for _, sv := range run.served {
		if sv.peephole[0] > 0 {
			in = append(in, float64(sv.peephole[0]))
			out = append(out, float64(sv.peephole[1]))
		}
		if sv.job {
			waits = append(waits, float64(sv.queueWait)/1e6)
		}
		if sv.stream != nil {
			maxWindow = max(maxWindow, float64(sv.stream.Stats.MaxWindow))
			windowBytes = max(windowBytes, float64(sv.stream.Stats.WindowBytes))
		}
	}
	if len(in) > 0 {
		res.set("opt.peephole_removed_frac", 1-sum(out)/sum(in), "ratio", source)
	}
	if len(waits) > 0 {
		sort.Float64s(waits)
		res.set("jobqueue.queue_wait_ms_p50", percentile(waits, 0.5), "ms", source)
		res.set("jobqueue.queue_wait_ms_p90", percentile(waits, 0.9), "ms", source)
	}
	if w.stream {
		res.set("core.stream_max_window", maxWindow, "gates", source)
		res.set("core.stream_window_bytes", windowBytes, "B", source)
	}
	if w.engine {
		st := run.stats
		res.set("batch.cache_hit_ratio", float64(st.Hits+st.Shared)/float64(st.Jobs), "ratio", source)
		res.set("batch.singleflight_joins", float64(st.Shared), "count", source)
	}
	if !w.stream {
		probeLayers(w, reqs, run, res, source)
	}
	return lt, nil
}

// memDelta runs fn alone on this goroutine and reports its heap bytes
// and allocation count. Nothing else may run meanwhile: the counters
// are process-wide.
func memDelta(fn func()) (bytes, allocs uint64, took time.Duration) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	fn()
	took = time.Since(start)
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs, took
}

// probeLayers measures, one call at a time, what spans cannot: bytes
// and allocations of parse and format, the routing core's prepare and
// per-trial cost on the replay's distinct keys, and how much of a lone
// route's worker time the trials fill (pipeline.trial_efficiency: Σ
// sequential trial time ÷ Σ route wall × trial workers).
func probeLayers(w *workload, reqs []request, run *replayRun, res *traceResult, source string) {
	var parseB, parseA, parseG, formatB, formatG uint64
	var keys []*key
	var finals []*circuit.Circuit
	seenIn := map[*input]bool{}
	seenKey := map[int]bool{}
	for i, r := range reqs {
		k := r.key
		if !seenIn[k.in] {
			seenIn[k.in] = true
			b, a, _ := memDelta(func() { _, _ = qasm.Parse(string(k.in.body)) })
			parseB, parseA, parseG = parseB+b, parseA+a, parseG+uint64(k.in.gates)
		}
		if !seenKey[k.id] && run.served[i].final != nil {
			seenKey[k.id] = true
			keys = append(keys, k)
			finals = append(finals, run.served[i].final)
		}
	}
	for i, f := range finals {
		b, _, _ := memDelta(func() { _ = qasm.Format(f) })
		formatB, formatG = formatB+b, formatG+uint64(keys[i].in.gates)
	}
	if parseG > 0 {
		res.set("qasm.parse_bytes_per_gate", float64(parseB)/float64(parseG), "B/gate", source)
		res.set("qasm.parse_allocs_per_gate", float64(parseA)/float64(parseG), "allocs/gate", source)
	}
	if formatG > 0 {
		res.set("qasm.format_bytes_per_gate", float64(formatB)/float64(formatG), "B/gate", source)
	}

	// Routing core: prepare once, then every trial in turn on one
	// scratch, as one trial worker does; then the whole route with the
	// daemon's trial workers, alone, so its wall has the CPUs to itself.
	if w.engine && len(keys) > probeTrialKeys {
		keys = keys[:probeTrialKeys]
	}
	var prepNs, trialNs, gates, trialGates, trialB, trialA, trials, rounds, workerNs float64
	devs, err := devices()
	if err != nil {
		res.fail("%s probe: %v", source, err)
		return
	}
	for _, k := range keys {
		opts := core.DefaultOptions()
		opts.Seed = k.seed
		var p *core.Prepared
		var perr error
		_, _, took := memDelta(func() { p, perr = core.Prepare(k.in.circ, devs[k.device], opts) })
		if perr != nil {
			res.fail("%s probe prepare %s: %v", source, k.in.name, perr)
			return
		}
		prepNs += float64(took.Nanoseconds())
		gates += float64(k.in.gates)
		scratch := core.NewScratch()
		for t := 0; t < p.Options().Trials; t++ {
			var r *core.Result
			b, a, took := memDelta(func() { r, _ = p.RunTrialWith(t, scratch) })
			trialNs += float64(took.Nanoseconds())
			trialB += float64(b)
			trialA += float64(a)
			trialGates += float64(k.in.gates)
			trials++
			rounds += float64(r.Stats.SwapRounds)
		}
		workers := min(p.Options().Trials, runtime.GOMAXPROCS(0))
		start := time.Now()
		if _, err := (pipeline.TrialRunner{Workers: workers}).Route(context.Background(), k.in.circ, devs[k.device], opts); err != nil {
			res.fail("%s probe route %s: %v", source, k.in.name, err)
			return
		}
		workerNs += float64(time.Since(start).Nanoseconds()) * float64(workers)
	}
	if gates == 0 {
		return
	}
	res.set("core.prepare_ns_per_gate", prepNs/gates, "ns/gate", source)
	res.set("core.trial_ns_per_gate", trialNs/trialGates, "ns/gate", source)
	res.set("core.trial_bytes_per_gate", trialB/trialGates, "B/gate", source)
	res.set("core.trial_allocs", trialA/trials, "allocs/trial", source)
	res.set("core.swap_rounds", rounds, "count", source)
	res.set("pipeline.trial_efficiency", trialNs/workerNs, "ratio", source)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
