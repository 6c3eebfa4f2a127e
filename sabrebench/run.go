package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// A run boots the daemon setupBoots times before the timed window (the
// last one serves it) and setupBootsAfter times after it; setup_s is
// the median of all. Booting on both sides of the window keeps a burst
// of host load from setting every sample.
const (
	setupBoots      = 16
	setupBootsAfter = 15
)

// simSample is how many qx5 keys of a run are checked by state-vector
// simulation after the timed window.
const simSample = 6

// record is one timed request.
type record struct {
	idx    int
	lat    time.Duration
	err    error
	digest uint32
}

// first is the first answer the client got for a key; repeats of the
// key must carry the same routed QASM.
type first struct {
	req    request
	body   []byte
	digest uint32
	trail  streamTrailers
}

// e2eResult is everything a timed run measured.
type e2eResult struct {
	tally
	metrics map[string]metric
	props   map[string]any // measured input properties
	table2  []map[string]any
}

// tally counts attempted requests and failures, keeping the first
// failure messages for the log.
type tally struct {
	attempted int
	failed    int
	problems  []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// bootReady boots a daemon and sends the workload's warm-up requests:
// the set-up a user waits for before the first real answer.
func bootReady(w *workload, bin string) (*daemon, time.Duration, error) {
	start := time.Now()
	var args []string
	if w.cache != sabredDefaultCache {
		args = append(args, "-cache", strconv.Itoa(w.cache))
	}
	d, err := bootDaemon(bin, args...)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitHealthy(); err != nil {
		d.stop()
		return nil, 0, err
	}
	for _, r := range w.warmup {
		if a := d.send(context.Background(), r, w.stream); a.err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up request: %w", a.err)
		}
	}
	return d, time.Since(start), nil
}

// runE2E boots the daemon, drives the workload for the given time with
// tracing off, then checks every answer.
func runE2E(w *workload, bin string, seconds int, seed int64) (*e2eResult, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupBoots; i++ {
		dd, took, err := bootReady(w, bin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupBoots-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop() // error paths; the daemon is stopped before the checks otherwise
	logf("set-up done (median %.4fs); timed window of %ds", median(setups), seconds)
	st0, err := d.stats()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}

	// The timed window: w.conns closed loops share one request sequence.
	// New requests stop being handed out once the window has run for
	// the given time, and only at the start of a whole pass.
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		firsts  = map[int]*first{}
		recs    []record
		end     time.Time
	)
	dur := time.Duration(seconds) * time.Second
	start := time.Now()
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next%w.pass == 0 && time.Since(start) >= dur {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		next++
		return next - 1, true
	}
	closedLoops(w.conns, claim, func(i int) {
		r := w.at(i)
		a := d.send(context.Background(), r, w.stream)
		mu.Lock()
		defer mu.Unlock()
		recs = append(recs, record{idx: i, lat: a.lat, err: a.err, digest: a.digest})
		if a.err == nil && firsts[r.key.id] == nil {
			firsts[r.key.id] = &first{req: r, body: a.body, digest: a.digest, trail: a.trail}
		}
		if t := time.Now(); t.After(end) {
			end = t
		}
	})
	wall := end.Sub(start)
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })

	res := &e2eResult{metrics: map[string]metric{}, props: map[string]any{}}
	st1, err := d.stats()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}

	// Fixed keys the window did not ask for are asked for now, so the
	// quality sums do not depend on the window's length.
	fixedAns := map[int]*first{}
	for _, k := range w.fixed {
		if f := firsts[k.id]; f != nil {
			fixedAns[k.id] = f
			continue
		}
		r := request{key: k}
		a := d.send(context.Background(), r, w.stream)
		res.attempted++
		if a.err != nil {
			res.fail("fixed key %s/%s seed %d: %v", k.in.name, k.device, k.seed, a.err)
			continue
		}
		fixedAns[k.id] = &first{req: r, body: a.body, digest: a.digest, trail: a.trail}
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.stop()
	for i := 0; i < setupBootsAfter; i++ {
		dd, took, err := bootReady(w, bin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		dd.stop()
	}

	logf("window done: %d requests in %.2fs; checking answers", len(recs), wall.Seconds())

	// Checks, outside the timed window. A key whose answer fails a
	// check fails every request that asked for it.
	badKey := map[int]bool{}
	checked := map[int]*compileResp{}
	check := func(f *first) {
		k := f.req.key
		if _, done := checked[k.id]; done || badKey[k.id] {
			return
		}
		if w.stream {
			st, err := checkStream(k, f.body, f.trail)
			if err != nil {
				badKey[k.id] = true
				res.fail("stream %s: %v", k.in.name, err)
				return
			}
			// A stream's quality sums, in the shape of a compile answer.
			checked[k.id] = &compileResp{AddedGates: 3 * f.trail.swaps, Depth: st.depth}
			return
		}
		cr, err := decodeCompile(f.body, f.req.job)
		if err == nil {
			err = checkCompile(k, cr)
		}
		if err == nil && crc32.ChecksumIEEE([]byte(cr.QASM)) != f.digest {
			err = fmt.Errorf("window digest %08x is not the CRC of the answer's routed QASM", f.digest)
		}
		if err != nil {
			badKey[k.id] = true
			res.fail("%s on %s seed %d: %v", k.in.name, k.device, k.seed, err)
			return
		}
		checked[k.id] = cr
	}
	for _, f := range firsts {
		check(f)
	}
	for _, f := range fixedAns {
		check(f)
	}
	owners := digestOwners{}
	for _, answers := range []map[int]*first{firsts, fixedAns} {
		for _, f := range answers {
			if err := owners.add(f.digest, f.req.key.in.name); err != nil {
				res.fail("%v", err)
			}
		}
	}

	var gates, jobs, repeats, ok int
	var lats []float64
	var sizes []int
	seen := map[int]bool{}
	devices := map[string]int{}
	for _, rc := range recs {
		r := w.at(rc.idx)
		res.attempted++
		lats = append(lats, float64(rc.lat)/float64(time.Millisecond))
		switch {
		case rc.err != nil:
			res.fail("request %d (%s): %v", rc.idx, r.key.in.name, rc.err)
			continue
		case badKey[r.key.id]:
			res.failed++
			continue
		case rc.digest != firsts[r.key.id].digest:
			res.fail("request %d (%s): routed QASM differs from the first answer for its key", rc.idx, r.key.in.name)
			continue
		}
		gates += r.key.in.gates
		sizes = append(sizes, r.key.in.gates)
		devices[r.key.device]++
		if r.job {
			jobs++
		}
		if seen[r.key.id] {
			repeats++
		}
		seen[r.key.id] = true
		ok++
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no request completed in the timed window")
	}

	logf("answers checked; simulating a sample")

	// State-vector equivalence on a seeded sample of qx5 answers.
	var qx5 []int
	for id := range checked {
		if f := firsts[id]; f != nil && f.req.key.device == "qx5" {
			qx5 = append(qx5, id)
		}
	}
	sort.Ints(qx5)
	rng := rand.New(rand.NewSource(mix(seed, 12)))
	rng.Shuffle(len(qx5), func(i, j int) { qx5[i], qx5[j] = qx5[j], qx5[i] })
	simmed := 0
	for _, id := range qx5[:min(len(qx5), simSample)] {
		k := firsts[id].req.key
		if err := checkEquivalent(k.in.circ, checked[id], deviceQubits(k.device), rng); err != nil {
			res.fail("%s on qx5 seed %d: %v", k.in.name, k.seed, err)
		}
		simmed++
	}

	var added, depth int
	for _, k := range w.fixed {
		cr := checked[k.id]
		if cr == nil {
			continue // already failed
		}
		added += cr.AddedGates
		depth += cr.Depth
	}
	if w.name == "table2-large" {
		// Per circuit: added gates over the fixed key set's routing seeds,
		// beside SABRE's g_op in Table II (informational, not gated).
		byCircuit := map[string][]float64{}
		var order []*input
		for _, k := range w.fixed {
			if cr := checked[k.id]; cr != nil {
				if byCircuit[k.in.name] == nil {
					order = append(order, k.in)
				}
				byCircuit[k.in.name] = append(byCircuit[k.in.name], float64(cr.AddedGates))
			}
		}
		sort.Slice(order, func(i, j int) bool { return order[i].gates < order[j].gates })
		for _, in := range order {
			xs := byCircuit[in.name]
			sort.Float64s(xs)
			res.table2 = append(res.table2, map[string]any{
				"circuit": in.name, "gates": in.gates, "seeds": len(xs),
				"added_gates_min": xs[0], "added_gates_median": median(xs), "paper_g_op": in.paperGop,
			})
		}
	}

	sort.Float64s(lats)
	res.metrics["setup_s"] = metric{median(setups), "s"}
	res.metrics["throughput_gates_per_s"] = metric{float64(gates) / wall.Seconds(), "gates/s"}
	res.metrics["latency_p50_ms"] = metric{percentile(lats, 0.50), "ms"}
	res.metrics["latency_p90_ms"] = metric{percentile(lats, 0.90), "ms"}
	res.metrics["latency_p99_ms"] = metric{percentile(lats, 0.99), "ms"}
	res.metrics["peak_rss_mb"] = metric{rss, "MB"}
	res.metrics["added_gates"] = metric{float64(added), "gates"}
	res.metrics["routed_depth"] = metric{float64(depth), "moments"}

	dj := st1.Jobs - st0.Jobs
	q := quartiles(sizes)
	res.props = map[string]any{
		"requests":               len(recs),
		"requests_ok":            ok,
		"latency_samples":        len(lats),
		"window_s":               wall.Seconds(),
		"distinct_keys":          len(seen),
		"repeat_key_share":       ratio(repeats, ok),
		"jobs_share":             ratio(jobs, ok),
		"gates_q1_q2_q3":         q,
		"device_mix":             devices,
		"fixed_keys":             len(w.fixed),
		"sim_checked_keys":       simmed,
		"engine_jobs":            dj,
		"engine_cache_hit_share": ratio(int(st1.Hits-st0.Hits+st1.Shared-st0.Shared), int(dj)),
		"engine_compiles":        st1.Compiles - st0.Compiles,
		"setup_s_samples":        setups,
	}
	return res, nil
}

// closedLoops runs conns client loops. Each claims the next request
// index, handles it, and claims again, until claim says stop.
func closedLoops(conns int, claim func() (int, bool), do func(i int)) {
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// listClaim hands out 0..n-1 once each.
func listClaim(n int) func() (int, bool) {
	var mu sync.Mutex
	next := 0
	return func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, false
		}
		next++
		return next - 1, true
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "sabrebench: "+format+"\n", args...) }
