package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// Streaming compilation: route an unbounded gate stream with memory
// O(device + window), independent of circuit length.
//
// A stream is Algorithm 1's forward traversal — the same router.step
// loop PassRunner.Run drives — over a bounded admission window. The
// materialized pass admits the whole circuit before its first drain;
// a stream admits gates from a GateSource only as the loop needs them,
// into a slot arena whose columns are the traversal's depTables, with
// per-qubit chains instead of a DAG, and routed gates leave through a
// StreamSink in bounded chunks. Algorithm 1 only ever consults a
// bounded neighborhood of the execution frontier — the front layer F,
// the extended set E and the decay state, all device-sized — so the
// window is all it needs.
//
// The admission point is the only difference from PassRunner.Run: the
// same loop over the whole circuit admitted up front reproduces Run
// gate for gate from the same layout and RNG
// (TestWholeWindowIsForwardPass). It does change routing decisions,
// because the extended set can only reach admitted gates. On 200k-gate
// random traces (workloads.WriteRandomQASM: 20 qubits, half CNOTs,
// seeds 1–3, Tokyo) the whole-circuit pass from the same layout added
// 3.5–4.0% more gates than the default window (about 238k vs 230k), so
// the window is not a quality compromise.
//
// Semantics are pinned and deterministic: one trial, one forward
// traversal, the seeded random initial layout trial 0 of Compile would
// draw, the configured scoring engine. Multi-trial restart search is
// meaningless when the input cannot be replayed, so a stream is not
// comparable to Compile's output; its parity contract is with
// RouteStreamMaterialized, which runs the same window over a fully
// materialized circuit and its BuildDAG. The two dependency stores
// share no admission bookkeeping — slot arena + qubit chains vs. CSR
// DAG + done flags — which makes each the independent oracle for the
// other.
//
// Window admission policy (identical for both stores, so it is part
// of the pinned semantics): after every drain the window is topped up
// until the lookahead beyond the front layer holds ExtendedSetSize
// two-qubit gates — exactly what one scoring round can consume — or
// StreamOptions.Lookahead gates are pending behind the front,
// whichever comes first. The second bound caps the window on streams
// of blocked single-qubit gates, which never count toward the first.
// Window occupancy is therefore O(|F| + Lookahead), and |F| ≤ n/2
// (front gates are vertex-disjoint), giving the O(device + window)
// bound regardless of stream length.

// GateSource is the pull side of a gate stream: Next returns the next
// gate and ok=true, ok=false at end of stream, or a terminal error.
// qasm.GateScanner satisfies it structurally; NewCircuitSource adapts
// an in-memory circuit.
type GateSource interface {
	Next() (g circuit.Gate, ok bool, err error)
}

// StreamSink receives routed physical gates in chunks. Emit is called
// with a reused buffer: implementations that retain gates past the
// call must copy. A non-nil error aborts the stream and is returned
// from RouteStream.
type StreamSink interface {
	Emit(gates []circuit.Gate) error
}

// StreamOptions tunes the streaming mode. The zero value means
// defaults (see DefaultStreamOptions). None of these knobs affect the
// routed output — Window is a capacity hint and ChunkGates only
// changes emission granularity — except Lookahead, which bounds the
// admission window and is part of the deterministic semantics.
type StreamOptions struct {
	// Window is the initial slot-arena capacity in gates. The arena
	// grows by doubling if the live window outruns it, so this is a
	// pre-sizing hint, not a limit.
	Window int

	// Lookahead caps the gates admitted beyond the front layer. It is
	// the streaming analogue of the extended-set size and the only
	// StreamOptions field that changes routing decisions: a larger
	// window can surface later two-qubit gates to the lookahead
	// heuristic. Default 256.
	Lookahead int

	// ChunkGates is the emission granularity: the output buffer is
	// flushed to the sink once it holds at least this many gates.
	ChunkGates int
}

// DefaultStreamOptions returns the streaming defaults: a 4096-slot
// window hint, 256-gate lookahead, 1024-gate chunks.
func DefaultStreamOptions() StreamOptions {
	return StreamOptions{Window: 4096, Lookahead: 256, ChunkGates: 1024}
}

// normalized fills zero fields with defaults.
func (o StreamOptions) normalized() StreamOptions {
	d := DefaultStreamOptions()
	if o.Window <= 0 {
		o.Window = d.Window
	}
	if o.Lookahead <= 0 {
		o.Lookahead = d.Lookahead
	}
	if o.ChunkGates <= 0 {
		o.ChunkGates = d.ChunkGates
	}
	return o
}

// StreamStats instruments one streaming traversal. The JSON names
// match the daemon's snake_case API surface (it embeds this struct in
// streaming job views).
type StreamStats struct {
	GatesIn  int64 `json:"gates_in"`  // gates admitted from the source
	GatesOut int64 `json:"gates_out"` // gates emitted to the sink

	SwapCount    int `json:"swaps"`
	BridgeCount  int `json:"bridges"`
	AddedGates   int `json:"added_gates"` // 3 per SWAP and per bridge, like Result
	SwapRounds   int `json:"swap_rounds"`
	ForcedRoutes int `json:"forced_routes"`

	// MaxFront and MaxWindow are the high-water front-layer size and
	// live-window occupancy; WindowBytes the arena's final footprint.
	// Flat MaxWindow/WindowBytes across a 10× longer stream is the
	// O(device + window) memory claim, measured.
	MaxFront    int   `json:"max_front"`
	MaxWindow   int   `json:"max_window"`
	WindowBytes int64 `json:"window_bytes"`

	Chunks      int           `json:"chunks"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	GatesPerSec float64       `json:"gates_per_sec"` // GatesOut / Elapsed
}

// StreamResult is the summary of a completed streaming compilation.
// The routed gates themselves went to the sink.
type StreamResult struct {
	InitialLayout []int
	FinalLayout   []int
	NumQubits     int
	Stats         StreamStats
}

// windowDeps is the dependency store behind a windowed traversal: the
// slot arena (ringDeps) or the materialized-DAG oracle (flatDeps). It
// runs once per gate at admission and at retirement; every loop of the
// traversal reads the depTables it maintains.
type windowDeps interface {
	// tables returns the store's current depTables.
	tables() depTables
	// admit enters g, links it behind its unexecuted predecessors, and
	// returns its handle; g is ready when its indegree is 0. A store
	// whose tables moved (arena growth) rewrites *t.
	admit(g circuit.Gate, t *depTables) int
	// retire releases h after the traversal executed it.
	retire(h int)
	maxLive() int
	memBytes() int64
}

// ringDeps is the windowed dependency store: a free-list slot arena
// plus per-qubit chain tails, all living in the Scratch. See the
// streamScratch doc for the recycling and stale-tail invariants.
type ringDeps struct {
	s       *Scratch
	nextGid int64
	live    int
	peak    int
}

// newRingDeps readies s's arena for a stream on an n-qubit device,
// pre-sized to window slots.
func newRingDeps(s *Scratch, n, window int) *ringDeps {
	s.stream.growArena(window)
	s.stream.resetStream(n)
	return &ringDeps{s: s}
}

func (d *ringDeps) tables() depTables {
	z := &d.s.stream
	return depTables{gates: z.slotGate, q2: z.slotQ2, succ: z.slotSucc, inDeg: z.slotInDeg, gid: z.slotGid}
}

//sabre:hotpath
func (d *ringDeps) admit(g circuit.Gate, t *depTables) int {
	z := &d.s.stream
	if len(z.free) == 0 {
		d.grow(t)
	}
	s := z.free[len(z.free)-1]
	z.free = z.free[:len(z.free)-1]
	gid := d.nextGid
	d.nextGid++
	i2 := 2 * int(s)
	z.slotGate[s] = g
	z.slotGid[s] = gid
	if g.TwoQubit() {
		z.slotQ2[i2] = int32(g.Q0)
		z.slotQ2[i2+1] = int32(g.Q1)
	} else {
		z.slotQ2[i2] = -1
		z.slotQ2[i2+1] = -1
	}
	z.slotInDeg[s] = 0
	z.slotSucc[i2] = -1
	z.slotSucc[i2+1] = -1
	d.link(g.Q0, s)
	if g.TwoQubit() {
		d.link(g.Q1, s)
	}
	z.chainTailSlot[g.Q0] = s
	z.chainTailGid[g.Q0] = gid
	if g.TwoQubit() {
		z.chainTailSlot[g.Q1] = s
		z.chainTailGid[g.Q1] = gid
	}
	d.live++
	if d.live > d.peak {
		d.peak = d.live
	}
	return int(s)
}

// link adds the dependency edge chainTail[w] → s, if that tail is
// still live (gid match; a recycled slot fails it and means the chain
// head already executed). Successors fill the tail's two entries in
// link order, which is admission order.
//
//sabre:hotpath
func (d *ringDeps) link(w int, s int32) {
	z := &d.s.stream
	t := z.chainTailSlot[w]
	if t < 0 || z.slotGid[t] != z.chainTailGid[w] {
		return
	}
	z.slotInDeg[s]++
	k := 2 * t
	if z.slotSucc[k] >= 0 {
		k++
	}
	z.slotSucc[k] = s
}

// grow doubles the arena and re-points t at the moved columns.
// Amortized: once the window's high-water mark is reached the free
// list never empties again.
func (d *ringDeps) grow(t *depTables) {
	target := 2 * len(d.s.stream.slotGid)
	if target < 64 {
		target = 64
	}
	d.s.stream.growArena(target)
	*t = d.tables()
}

//sabre:hotpath
func (d *ringDeps) retire(h int) {
	z := &d.s.stream
	z.slotGate[h] = circuit.Gate{}
	z.slotGid[h] = -1
	z.free = append(z.free, int32(h))
	d.live--
}

func (d *ringDeps) maxLive() int { return d.peak }

// memBytes is the windowed traversal's footprint: the arena, the chain
// tails, and the handle-indexed traversal buffers.
func (d *ringDeps) memBytes() int64 {
	s := d.s
	z := &s.stream
	b := int64(cap(z.slotGate)) * int64(unsafe.Sizeof(circuit.Gate{}))
	b += int64(cap(z.slotGid)+cap(z.chainTailGid)) * 8
	b += int64(cap(z.slotQ2)+cap(z.slotInDeg)+cap(z.slotSucc)+cap(z.free)+cap(z.chainTailSlot)) * 4
	b += int64(cap(s.front)+cap(s.ready)+cap(s.extended)+cap(s.bfsQueue)) * 8
	b += int64(cap(s.gateMark)) * 4
	return b
}

// flatDeps is the materialized oracle: the windowed store's contract
// served from a whole circuit and its BuildDAG. Admission is a cursor
// walk in program order that links a gate behind each DAG predecessor
// not yet executed — so successor lists and readiness transitions
// match ringDeps decision for decision while the bookkeeping shares
// nothing with it.
type flatDeps struct {
	circ     *circuit.Circuit
	dag      *circuit.DAG
	q2       []int32
	succ     []int32
	inDeg    []int32
	done     []bool
	admitted int
	live     int
	peak     int
}

func newFlatDeps(c *circuit.Circuit) *flatDeps {
	g := c.NumGates()
	d := &flatDeps{
		circ:  c,
		dag:   circuit.BuildDAG(c),
		q2:    pairTable(c),
		succ:  make([]int32, 2*g),
		inDeg: make([]int32, g),
		done:  make([]bool, g),
	}
	for i := range d.succ {
		d.succ[i] = -1
	}
	return d
}

func (d *flatDeps) tables() depTables {
	return depTables{gates: d.circ.Gates(), q2: d.q2, succ: d.succ, inDeg: d.inDeg}
}

func (d *flatDeps) admit(circuit.Gate, *depTables) int {
	h := d.admitted
	d.admitted++
	for _, p := range d.dag.Predecessors(h) {
		if d.done[p] {
			continue
		}
		k := 2 * p
		if d.succ[k] >= 0 {
			k++
		}
		d.succ[k] = int32(h)
		d.inDeg[h]++
	}
	d.live++
	if d.live > d.peak {
		d.peak = d.live
	}
	return h
}

func (d *flatDeps) retire(h int) {
	d.done[h] = true
	d.live--
}

func (d *flatDeps) maxLive() int { return d.peak }

// memBytes understates the true footprint — the circuit and CSR DAG
// dominate — which is the point: the materialized path is O(gates) by
// construction and makes no windowed-memory claim.
func (d *flatDeps) memBytes() int64 {
	return int64(cap(d.q2)+cap(d.succ)+cap(d.inDeg))*4 + int64(cap(d.done))
}

// circuitSource adapts an in-memory circuit to the GateSource shape.
type circuitSource struct {
	c *circuit.Circuit
	i int
}

// NewCircuitSource returns a GateSource yielding c's gates in order.
func NewCircuitSource(c *circuit.Circuit) GateSource { return &circuitSource{c: c} }

//sabre:hotpath
func (cs *circuitSource) Next() (circuit.Gate, bool, error) {
	if cs.i >= cs.c.NumGates() {
		return circuit.Gate{}, false, nil
	}
	g := cs.c.Gate(cs.i)
	cs.i++
	return g, true, nil
}

// window is the admission side of a streaming traversal. The router
// runs Algorithm 1's loop unchanged; after each drain the window
// admits gates from the source until the lookahead beyond the front
// layer is full (fill), and hands routed gates to the sink in chunks.
type window struct {
	src       GateSource
	sink      StreamSink
	deps      windowDeps
	lookahead int // StreamOptions.Lookahead
	chunk     int // StreamOptions.ChunkGates

	eof bool
	err error

	admitted   int64
	admitted2q int
	emitted    int64
	chunks     int
	maxFront   int
}

// newWindowedRouter sets up a streaming traversal of src on dev: the
// seeded random initial layout, deps' tables, and the window.
func newWindowedRouter(src GateSource, dev *arch.Device, opts Options, sopts StreamOptions, sink StreamSink, s *Scratch, deps windowDeps, cancelled <-chan struct{}) *router {
	rng := rand.New(rand.NewSource(opts.Seed))
	layout := mapping.Random(dev.NumQubits(), rng)
	var wdist []float64
	if opts.Noise != nil {
		wdist = dev.WeightedDistancesFor(opts.Noise)
	}
	t := deps.tables()
	r := newRouter(dev, opts, wdist, layout, rng, s, len(t.gates), cancelled)
	r.depTables = t
	r.win = &window{src: src, sink: sink, deps: deps, lookahead: sopts.Lookahead, chunk: sopts.ChunkGates}
	return r
}

// fill runs after each drain: flush a full chunk, admit gates one at
// a time (draining after each) until the front layer is non-empty,
// then top the window up. Returns true when the traversal is over:
// the source ended and every admitted gate executed, the source, a
// gate or the sink failed, or the context was cancelled.
//
//sabre:hotpath
func (w *window) fill(r *router) bool {
	r.maybeFlush()
	for len(r.s.front) == 0 {
		if w.err != nil || w.eof {
			return true
		}
		select {
		case <-r.cancelled:
			r.aborted = true
			return true
		default:
		}
		w.admitOne(r)
		r.drain()
		r.maybeFlush()
	}
	w.refill(r)
	if w.err != nil {
		return true
	}
	if mf := len(r.s.front); mf > w.maxFront {
		w.maxFront = mf
	}
	return false
}

// admitOne pulls, validates and admits the next source gate; on EOF or
// error it latches eof so the loop can wind down.
//
//sabre:hotpath
func (w *window) admitOne(r *router) {
	g, ok, err := w.src.Next()
	if err != nil {
		w.err = err
		w.eof = true
		return
	}
	if !ok {
		w.eof = true
		return
	}
	n := r.n
	if g.Q0 < 0 || g.Q0 >= n || (g.TwoQubit() && (g.Q1 < 0 || g.Q1 >= n || g.Q1 == g.Q0)) {
		w.failGate(g, n)
		return
	}
	h := w.deps.admit(g, &r.depTables)
	if h >= len(r.s.gateMark) {
		r.s.sizeMarks(len(r.gates))
	}
	w.admitted++
	if g.TwoQubit() {
		w.admitted2q++
	}
	if r.inDeg[h] == 0 {
		r.s.ready = append(r.s.ready, h)
	}
}

// failGate records a validation error (out of hotpath: fmt allocates).
func (w *window) failGate(g circuit.Gate, n int) {
	w.err = fmt.Errorf("core: stream gate %d (%v) targets a qubit outside the %d-qubit device (or repeats one)",
		w.admitted, g.Kind, n)
	w.eof = true
}

// refill tops the window up after a drain: admit until the lookahead
// beyond the front holds ExtendedSetSize two-qubit gates (what one
// scoring round consumes) or Lookahead gates are pending behind the
// front. Part of the pinned semantics — both dependency stores see
// identical admission points.
//
//sabre:hotpath
func (w *window) refill(r *router) {
	target := r.opts.ExtendedSetSize
	lookahead := int64(w.lookahead)
	for !w.eof && w.err == nil {
		if w.admitted2q-r.done2q-len(r.s.front) >= target {
			return
		}
		if w.admitted-int64(r.done)-int64(len(r.s.front)) >= lookahead {
			return
		}
		w.admitOne(r)
		r.drain()
		r.maybeFlush()
	}
}

// maybeFlush hands the output buffer of a windowed traversal to the
// sink once a chunk's worth of gates accumulated.
//
//sabre:hotpath
func (r *router) maybeFlush() {
	if w := r.win; w != nil && len(r.s.out) >= w.chunk {
		w.flush(r)
	}
}

func (w *window) flush(r *router) {
	out := r.s.out
	if len(out) == 0 || w.err != nil {
		return
	}
	if err := w.sink.Emit(out); err != nil {
		w.err = err
		w.eof = true
		return
	}
	w.emitted += int64(len(out))
	w.chunks++
	r.s.out = out[:0]
}

func (w *window) result(r *router, elapsed time.Duration, init mapping.Layout) *StreamResult {
	stats := StreamStats{
		GatesIn:      w.admitted,
		GatesOut:     w.emitted,
		SwapCount:    r.swaps,
		BridgeCount:  r.bridges,
		AddedGates:   3 * (r.swaps + r.bridges),
		SwapRounds:   r.stats.SwapRounds,
		ForcedRoutes: r.stats.ForcedRoutes,
		MaxFront:     w.maxFront,
		MaxWindow:    w.deps.maxLive(),
		WindowBytes:  w.deps.memBytes(),
		Chunks:       w.chunks,
		Elapsed:      elapsed,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		stats.GatesPerSec = float64(stats.GatesOut) / sec
	}
	return &StreamResult{
		InitialLayout: init.LogicalToPhysical(),
		FinalLayout:   r.layout.LogicalToPhysical(),
		NumQubits:     r.n,
		Stats:         stats,
	}
}

// RouteStream routes the gate stream src onto dev and emits the routed
// physical gates through sink in chunks, holding only a bounded window
// of the stream in memory: steady state is O(device + window) however
// long the stream runs. Semantics are the pinned streaming traversal
// (single trial, one forward pass, seeded random initial layout);
// output is deterministic in (stream, dev, opts, sopts.Lookahead) and
// byte-identical to RouteStreamMaterialized on the same input. A nil
// scratch allocates a private one; passing a warm per-worker Scratch
// makes repeated streams allocation-free outside arena high-water
// growth. On error or cancellation the sink keeps whatever chunks were
// already emitted; the partial tail is dropped and an error returned
// (ctx.Err for cancellation).
func RouteStream(ctx context.Context, src GateSource, dev *arch.Device, opts Options, sopts StreamOptions, sink StreamSink, s *Scratch) (*StreamResult, error) {
	if src == nil {
		return nil, errors.New("core: RouteStream needs a gate source")
	}
	if sink == nil {
		return nil, errors.New("core: RouteStream needs a sink")
	}
	if dev == nil {
		return nil, errors.New("core: RouteStream needs a device")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalized()
	dev = effectiveDevice(dev, opts)
	sopts = sopts.normalized()
	if s == nil {
		s = NewScratch()
	}
	deps := newRingDeps(s, dev.NumQubits(), sopts.Window)
	return routeStream(ctx, src, dev, opts, sopts, sink, s, deps)
}

// RouteStreamMaterialized runs the identical pinned streaming
// semantics over a fully materialized circuit and its dependency DAG.
// It is the independent oracle for RouteStream — same traversal and
// admission window, no shared dependency bookkeeping — and the
// reference the golden parity suite holds the windowed path to. Memory
// is O(gates); use RouteStream for anything large.
func RouteStreamMaterialized(ctx context.Context, circ *circuit.Circuit, dev *arch.Device, opts Options, sopts StreamOptions, sink StreamSink) (*StreamResult, error) {
	if circ == nil {
		return nil, errors.New("core: RouteStreamMaterialized needs a circuit")
	}
	if sink == nil {
		return nil, errors.New("core: RouteStreamMaterialized needs a sink")
	}
	if dev == nil {
		return nil, errors.New("core: RouteStreamMaterialized needs a device")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalized()
	dev = effectiveDevice(dev, opts)
	if circ.NumQubits() > dev.NumQubits() {
		return nil, fmt.Errorf("core: circuit needs %d qubits but device %s has %d",
			circ.NumQubits(), dev.Name(), dev.NumQubits())
	}
	sopts = sopts.normalized()
	return routeStream(ctx, NewCircuitSource(circ), dev, opts, sopts, sink, NewScratch(), newFlatDeps(circ))
}

func routeStream(ctx context.Context, src GateSource, dev *arch.Device, opts Options, sopts StreamOptions, sink StreamSink, s *Scratch, deps windowDeps) (*StreamResult, error) {
	//sabre:nondeterm-ok wall-clock elapsed metric; never feeds routing decisions
	start := time.Now()
	r := newWindowedRouter(src, dev, opts, sopts, sink, s, deps, ctx.Done())
	init := r.layout.Clone()
	r.run()
	w := r.win
	if w.err != nil {
		return nil, w.err
	}
	if r.aborted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	w.flush(r)
	if w.err != nil {
		return nil, w.err
	}
	return w.result(r, time.Since(start), init), nil
}

// StreamProbe pins a warm streaming router mid-flight over an endless
// deterministic CNOT stream on the 20-qubit Tokyo device, so tests and
// benchmarks can measure a steady-state streaming step in isolation —
// the streaming counterpart of ScoreRoundProbe. Step performs one full
// loop iteration (drain, admission, refill, and a forced-route,
// bridge, or SWAP round) against a no-op sink; after the warmup in
// NewStreamProbe it performs zero heap allocations.
type StreamProbe struct {
	r *router
}

// cycleSource yields a fixed gate sequence forever.
type cycleSource struct {
	gates []circuit.Gate
	i     int
}

//sabre:hotpath
func (c *cycleSource) Next() (circuit.Gate, bool, error) {
	g := c.gates[c.i]
	c.i++
	if c.i == len(c.gates) {
		c.i = 0
	}
	return g, true, nil
}

// discardSink drops every chunk.
type discardSink struct{}

func (discardSink) Emit([]circuit.Gate) error { return nil }

// NewStreamProbe builds the probe and warms it past every amortized
// growth: arena at its high-water mark, output buffer at chunk
// capacity, scoring buffers sized.
func NewStreamProbe() *StreamProbe {
	dev := arch.IBMQ20Tokyo()
	n := dev.NumQubits()
	rng := rand.New(rand.NewSource(17))
	gates := make([]circuit.Gate, 0, 512)
	for len(gates) < 512 {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		gates = append(gates, circuit.CX(a, b))
	}
	opts := DefaultOptions().normalized()
	sopts := DefaultStreamOptions().normalized()
	s := NewScratch()
	deps := newRingDeps(s, n, sopts.Window)
	r := newWindowedRouter(&cycleSource{gates: gates}, dev, opts, sopts, discardSink{}, s, deps, nil)
	for i := 0; i < 4096; i++ {
		r.step()
	}
	return &StreamProbe{r: r}
}

// Step runs one steady-state streaming loop iteration.
func (p *StreamProbe) Step() {
	p.r.step()
}
