package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"repro/internal/circuit"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// input is one QASM program the daemon receives, plus what the checks
// need to judge the answer.
type input struct {
	name     string
	circ     *circuit.Circuit // nil for the stream trace (never materialised)
	body     []byte           // the bytes POSTed
	gates    int              // gate statements in body, counted by countGates
	paperGop int              // SABRE's g_op from Table II, -1 when not a Table II row
}

// key is one cache identity: the same key always compiles to the same
// routed program, so repeated keys are cache hits.
type key struct {
	id     int
	in     *input
	device string
	seed   int64
	passes string
}

// query is the URL query string of the key's request.
func (k *key) query() string {
	v := url.Values{}
	v.Set("device", k.device)
	v.Set("seed", strconv.FormatInt(k.seed, 10))
	if k.passes != "" {
		v.Set("passes", k.passes)
	}
	return v.Encode()
}

// request is one item of a workload's request sequence.
type request struct {
	key *key
	job bool // POST /jobs then GET /jobs/{id}?wait= instead of POST /compile
}

// workload is a deterministic request sequence built from a seed. The
// daemon sees only the generated QASM and query strings.
type workload struct {
	name   string
	conns  int  // client connections, each a closed loop
	pass   int  // the timed window only stops at multiples of pass
	stream bool // POST /compile?stream=1
	engine bool // in-process replay goes through batch.Engine (cache) rather than pass by pass

	cache int // sabred -cache: result-cache entries, -1 = off

	warmup []request // sent during set-up, one per device the workload uses
	fixed  []*key    // the fixed key set added_gates and routed_depth sum over

	mu   sync.Mutex
	reqs []request
	gen  func() request // next request of the sequence; called under mu, in order
}

// at returns request i, generating the sequence up to it.
func (w *workload) at(i int) request {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.reqs) <= i {
		w.reqs = append(w.reqs, w.gen())
	}
	return w.reqs[i]
}

// mix derives a positive, non-zero 63-bit value from a seed and a
// salt (splitmix64); routing seed 0 would mean "derive from content".
func mix(seed int64, salt ...int64) int64 {
	x := uint64(seed)
	for _, s := range salt {
		x ^= uint64(s) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	v := int64(x &^ (1 << 63))
	if v == 0 {
		v = 1
	}
	return v
}

// newInput renders a benchmark circuit as the QASM a client would send.
func newInput(c *circuit.Circuit, paperGop int) (*input, error) {
	body := []byte(qasm.Format(c))
	n, err := countGates(body)
	if err != nil {
		return nil, fmt.Errorf("input %s: %w", c.Name(), err)
	}
	if n != c.NumGates() {
		return nil, fmt.Errorf("input %s: QASM holds %d gates, circuit %d", c.Name(), n, c.NumGates())
	}
	return &input{name: c.Name(), circ: c, body: body, gates: n, paperGop: paperGop}, nil
}

const (
	table2Passes = "peephole,basis,schedule,verify"

	// sabredDefaultCache is sabred's default -cache (result-cache
	// entries); a workload with it runs sabred without the flag.
	sabredDefaultCache = 4096

	// serveSeeds is the routing seeds per (circuit, device) pair and
	// serveZipfS their popularity skew.
	serveSeeds = 4096
	serveZipfS = 1.3
	serveJobs  = 0.2 // share of requests sent through /jobs

	table2FixedPasses = 8
	serveFixedSeeds   = 16

	// warmupSeed is the routing seed of the set-up requests; it does
	// not follow the workload seed, so set-up does the same work on
	// every run.
	warmupSeed = 7

	streamGates  = 1_000_000
	streamQubits = 20
	streamCX     = 0.5
)

// newWorkload builds the named workload for a seed. scale < 1 shrinks
// the stream trace (used by the traced run's cross-workload probes).
func newWorkload(name string, seed int64, scale float64) (*workload, error) {
	switch name {
	case "table2-large":
		return table2Large(seed)
	case "serve-mix":
		return serveMix(seed)
	case "stream-1m":
		return stream1m(seed, int(streamGates*scale))
	}
	return nil, fmt.Errorf("unknown workload %q (table2-large|serve-mix|stream-1m)", name)
}

var workloadNames = []string{"table2-large", "serve-mix", "stream-1m"}

// table2Large cycles the 14 large Table II circuits on tokyo in Table
// II order; every request carries its own routing seed, derived from
// the workload seed, so no request is a cache hit. The order is fixed
// so that which compiles overlap on the two connections, and with it
// the daemon's peak memory, does not change with the seed.
func table2Large(seed int64) (*workload, error) {
	var ins []*input
	for _, b := range workloads.ByClass(workloads.ClassLarge) {
		in, err := newInput(b.Build(), b.PaperGop)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	// No key repeats, so the result cache only retains. sabred bounds it
	// by entries, not bytes: with the default 4096 it would keep every
	// routed program of the window (about 3.5 MB a request here), so
	// peak_rss_mb would exceed a gigabyte and grow one for one with
	// throughput, and a faster router would read as a memory regression.
	// serve-mix runs sabred's default cache and job retention instead.
	w := &workload{name: "table2-large", conns: 2, pass: len(ins), cache: -1}
	smallest := ins[0]
	for _, in := range ins {
		if in.gates < smallest.gates {
			smallest = in
		}
	}
	w.warmup = []request{{key: &key{id: -1, in: smallest, device: "tokyo", seed: warmupSeed, passes: table2Passes}}}
	n := 0
	w.gen = func() request {
		k := &key{id: n, in: ins[n%len(ins)], device: "tokyo", seed: mix(seed, 3, int64(n)), passes: table2Passes}
		n++
		return request{key: k}
	}
	// The fixed key set is the first table2FixedPasses passes: one pass
	// alone makes Σ added_gates swing by about 2% between seeds.
	for i := 0; i < table2FixedPasses*len(ins); i++ {
		w.fixed = append(w.fixed, w.at(i).key)
	}
	return w, nil
}

// serveMix sends small requests: the small, sim and qft circuits plus
// rd84_142, on tokyo and qx5. Each request picks a (circuit, device)
// pair uniformly and a routing seed of that pair by Zipf popularity
// rank; a fifth go through /jobs. Popularity follows the rank, not the
// circuit, so the gate-size mix is the same for every workload seed.
func serveMix(seed int64) (*workload, error) {
	type pair struct {
		in     *input
		device string
	}
	var pairs []pair
	for _, b := range workloads.All() {
		if b.Class == workloads.ClassLarge && b.Name != "rd84_142" {
			continue
		}
		in, err := newInput(b.Build(), -1)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, pair{in, "tokyo"})
		if in.circ.NumQubits() <= deviceQubits("qx5") {
			pairs = append(pairs, pair{in, "qx5"})
		}
	}
	keys := make(map[int]*key)
	keyOf := func(p, rank int) *key {
		id := p*serveSeeds + rank
		if k, ok := keys[id]; ok {
			return k
		}
		k := &key{id: id, in: pairs[p].in, device: pairs[p].device, seed: mix(seed, 5, int64(id))}
		keys[id] = k
		return k
	}
	// sabred runs with its default flags, as users run it: a result cache
	// of 4096 entries and finished jobs kept for 15 minutes, both of which
	// peak_rss_mb carries.
	w := &workload{name: "serve-mix", conns: 2, pass: 1, engine: true, cache: sabredDefaultCache}
	w.warmup = []request{
		{key: &key{id: -1, in: pairs[0].in, device: "tokyo", seed: warmupSeed}},
		{key: &key{id: -2, in: pairs[0].in, device: "qx5", seed: warmupSeed}},
	}
	rng := rand.New(rand.NewSource(mix(seed, 4)))
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveSeeds-1)
	w.gen = func() request {
		k := keyOf(rng.Intn(len(pairs)), int(zipf.Uint64()))
		return request{key: k, job: rng.Float64() < serveJobs}
	}
	// The fixed key set is every pair's serveFixedSeeds most popular
	// seeds; keys the window did not ask for are asked for after it.
	for p := range pairs {
		for r := 0; r < serveFixedSeeds; r++ {
			w.fixed = append(w.fixed, keyOf(p, r))
		}
	}
	return w, nil
}

// stream1m sends one seeded random trace through the streaming
// compiler, one stream at a time.
func stream1m(seed int64, gates int) (*workload, error) {
	trace := func(n int, s int64) (*input, error) {
		var buf bytes.Buffer
		if err := workloads.WriteRandomQASM(&buf, streamQubits, n, streamCX, s); err != nil {
			return nil, err
		}
		got, err := countGates(buf.Bytes())
		if err != nil {
			return nil, err
		}
		if got != n {
			return nil, fmt.Errorf("stream trace holds %d gates, want %d", got, n)
		}
		return &input{name: fmt.Sprintf("random_%d_%d", streamQubits, n), body: buf.Bytes(), gates: n, paperGop: -1}, nil
	}
	in, err := trace(gates, mix(seed, 8))
	if err != nil {
		return nil, err
	}
	warm, err := trace(2000, warmupSeed)
	if err != nil {
		return nil, err
	}
	k := &key{id: 0, in: in, device: "tokyo", seed: mix(seed, 10)}
	w := &workload{name: "stream-1m", conns: 1, pass: 1, stream: true, cache: sabredDefaultCache}
	w.warmup = []request{{key: &key{id: -1, in: warm, device: "tokyo", seed: warmupSeed}}}
	w.fixed = []*key{k}
	w.gen = func() request { return request{key: k} }
	return w, nil
}

// inputHash identifies the fixed key set's bytes and queries, so two
// runs that claim the same inputs can be checked to have had them.
func (w *workload) inputHash() string {
	h := sha256.New()
	for _, k := range w.fixed {
		h.Write([]byte(k.query()))
		h.Write(k.in.body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quartiles returns the 25th, 50th and 75th percentiles of xs.
func quartiles(xs []int) [3]int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	if len(s) == 0 {
		return [3]int{}
	}
	at := func(p float64) int { return s[int(p*float64(len(s)-1)+0.5)] }
	return [3]int{at(0.25), at(0.5), at(0.75)}
}
