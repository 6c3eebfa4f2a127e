package batch

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/route"
)

// Key is the canonical identity of a compilation job: a digest of the
// circuit structure, the device, and every Options field that can
// change the compile result. Two jobs with equal Keys produce
// byte-identical routed circuits, which is what lets the engine share
// cached results safely.
type Key [sha256.Size]byte

// keyVersion is bumped whenever the encoding below changes, so stale
// digests can never alias across engine versions (relevant once keys
// are persisted or exchanged between processes). Version 2 added the
// post-routing pass list; version 3 added the routing-backend name;
// version 4 added the calibration snapshot version, so results routed
// under one calibration are never served after a recalibration.
const keyVersion = 4

// KeyOf computes the cache key of a job. The encoding is canonical:
// field order is fixed, floats are encoded by their IEEE-754 bits, and
// map-backed structures (the noise model) are sorted before hashing.
func KeyOf(job Job) Key {
	// Defensive for callers hashing unresolved jobs directly; inside
	// the engine this is a no-op (process resolves before hashing).
	job = job.ResolveCalibration()
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	u64(keyVersion)

	// Device: name alone is not unique (custom devices may collide), so
	// the size and full edge list are folded in. Edges() is canonical:
	// construction order with each edge normalized to A < B. Every
	// variable-length section carries a length prefix so distinct
	// (device, circuit) byte streams can never alias each other.
	name := job.Device.Name()
	u64(uint64(len(name)))
	h.Write([]byte(name))
	i64(int64(job.Device.NumQubits()))
	u64(uint64(len(job.Device.Edges())))
	for _, e := range job.Device.Edges() {
		i64(int64(e.A))
		i64(int64(e.B))
	}

	// Circuit structure. The name is excluded: it is reporting metadata
	// and does not affect routing.
	c := job.Circuit
	i64(int64(c.NumQubits()))
	i64(int64(c.NumGates()))
	for _, g := range c.Gates() {
		u64(uint64(g.Kind))
		i64(int64(g.Q0))
		i64(int64(g.Q1))
		for _, p := range g.Params {
			f64(p)
		}
	}

	// Options, every result-affecting field. The Trials override is
	// folded in first so it is always part of the cache identity.
	o := job.Options
	if job.Trials > 0 {
		o.Trials = job.Trials
	}
	u64(uint64(o.Heuristic))
	i64(int64(o.ExtendedSetSize))
	f64(o.ExtendedSetWeight)
	f64(o.DecayDelta)
	i64(int64(o.DecayResetInterval))
	i64(int64(o.Trials))
	i64(int64(o.Traversals))
	i64(o.Seed)
	i64(int64(o.MaxStall))
	if o.UseBridge {
		u64(1)
	} else {
		u64(0)
	}
	f64(o.MaxEdgeError)
	hashNoise(h, u64, f64, o.Noise)
	// Calibration snapshot version: distinguishes results routed under
	// successive recalibrations even beyond the noise content above
	// (and is what lets a service observe the expected cache miss after
	// a recalibration lands).
	u64(job.CalVersion)

	// Routing backend, in canonical registry form so aliases (bka,
	// trials) and the implicit default ("" = sabre) share cache
	// entries. An unregistered name hashes as spelled — the job fails
	// before compiling, and errors are never cached, so the entry can
	// never be served.
	routeName, err := route.Canonical(job.Route)
	if err != nil {
		routeName = strings.ToLower(strings.TrimSpace(job.Route))
	}
	u64(uint64(len(routeName)))
	h.Write([]byte(routeName))

	// Post-routing pass list, normalized so spelling variants share
	// cache entries. The effective trial count is covered above via
	// o.Trials; callers overriding Job.Trials must fold it in first
	// (the engine does).
	passes := normalizePasses(job.Passes)
	u64(uint64(len(passes)))
	for _, name := range passes {
		u64(uint64(len(name)))
		h.Write([]byte(name))
	}

	var k Key
	h.Sum(k[:0])
	return k
}

// hashNoise folds a noise model into the digest with its edge map in
// sorted order (Go map iteration order is randomized).
func hashNoise(h interface{ Write([]byte) (int, error) }, u64 func(uint64), f64 func(float64), m *arch.NoiseModel) {
	if m == nil {
		u64(0)
		return
	}
	u64(1)
	f64(m.Default)
	u64(uint64(len(m.EdgeError)))
	edges := make([]arch.Edge, 0, len(m.EdgeError))
	//sabre:nondeterm-ok keys collected then sorted below
	for e := range m.EdgeError {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	for _, e := range edges {
		u64(uint64(e.A)<<32 | uint64(uint32(e.B)))
		f64(m.EdgeError[e])
	}
}

// deriveSeed returns the effective SABRE seed for a job: an explicit
// caller seed is kept, while the zero seed is replaced by a value
// derived from the job's structural key mixed with the engine's base
// seed. The derived seed depends only on job content — never on
// submission index, worker id, or scheduling — so batch results are
// reproducible under any worker count and any job order.
func deriveSeed(key Key, base int64, opts core.Options) core.Options {
	if opts.Seed != 0 {
		return opts
	}
	mixed := binary.LittleEndian.Uint64(key[:8]) ^ uint64(base)*0x9e3779b97f4a7c15
	seed := int64(mixed &^ (1 << 63)) // keep it positive for readability in logs
	if seed == 0 {
		seed = 1
	}
	opts.Seed = seed
	return opts
}

// Fingerprint is a cheap structural digest of a circuit alone (no
// device or options), handy for logging and for tests that assert two
// routed circuits are structurally identical without formatting QASM.
func Fingerprint(c *circuit.Circuit) uint64 {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(c.NumQubits()))
	for _, g := range c.Gates() {
		w(uint64(g.Kind))
		w(uint64(uint32(g.Q0))<<32 | uint64(uint32(g.Q1)))
		for _, p := range g.Params {
			w(math.Float64bits(p))
		}
	}
	return binary.LittleEndian.Uint64(h.Sum(nil)[:8])
}
