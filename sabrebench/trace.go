package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/jobqueue"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/qasm"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // index of the calling span, -1 for a request root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, which is
// how the untraced replay runs the identical code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTimes is the per-layer aggregate of a trace.
type layerTimes struct {
	self     map[string]int64   // Σ self time (duration minus child spans)
	durs     map[string][]int64 // every span's duration
	gates    map[string]int     // Σ input gates of the requests the layer ran in
	root     int64              // Σ request durations
	rootSelf int64              // Σ request time not inside any layer span
}

func aggregate(spans []span, reqGates map[int]int) layerTimes {
	lt := layerTimes{self: map[string]int64{}, durs: map[string][]int64{}, gates: map[string]int{}}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	seen := map[string]map[int]bool{}
	for i, s := range spans {
		d := s.End - s.Start
		self := d - child[i]
		if s.Parent < 0 {
			lt.root += d
			lt.rootSelf += self
			continue
		}
		lt.self[s.Name] += self
		lt.durs[s.Name] = append(lt.durs[s.Name], d)
		if seen[s.Name] == nil {
			seen[s.Name] = map[int]bool{}
		}
		if !seen[s.Name][s.Req] {
			seen[s.Name][s.Req] = true
			lt.gates[s.Name] += reqGates[s.Req]
		}
	}
	return lt
}

func (lt layerTimes) nsPerGate(name string) (float64, bool) {
	g := lt.gates[name]
	if g == 0 {
		return 0, false
	}
	return float64(lt.self[name]) / float64(g), true
}

func (lt layerTimes) p50ms(name string) (float64, bool) {
	d := lt.durs[name]
	if len(d) == 0 {
		return 0, false
	}
	xs := make([]float64, len(d))
	for i, v := range d {
		xs[i] = float64(v) / 1e6
	}
	return median(xs), true
}

// inproc serves requests in-process through the same public layer
// functions sabred calls, configured like the workload's sabred.
type inproc struct {
	w       *workload
	tr      *tracer
	eng     *batch.Engine
	queue   *jobqueue.Queue
	devs    map[string]*arch.Device
	workers int
	scratch *core.Scratch
}

func newInproc(w *workload, tr *tracer) (*inproc, error) {
	devs, err := devices()
	if err != nil {
		return nil, err
	}
	s := &inproc{w: w, tr: tr, devs: devs, workers: runtime.GOMAXPROCS(0), scratch: core.NewScratch()}
	s.eng = batch.NewEngine(batch.Config{CacheEntries: w.cache, BaseSeed: 1, TrialWorkers: s.workers})
	s.queue = jobqueue.New(s.eng, jobqueue.Config{})
	return s, nil
}

// devices builds the benchmark's devices from the repository's catalogue.
func devices() (map[string]*arch.Device, error) {
	devs := map[string]*arch.Device{}
	for name := range couplings {
		d, err := arch.FromSpec(name)
		if err != nil {
			return nil, err
		}
		devs[name] = d
	}
	return devs, nil
}

func (s *inproc) close() {
	_ = s.queue.Close(context.Background())
	s.eng.Close()
}

// served is the in-process outcome of one request.
type served struct {
	dur       time.Duration
	err       error
	final     *circuit.Circuit
	job       bool          // went through the job queue
	queueWait time.Duration // created -> started, for jobs
	peephole  [2]int        // gates into and out of the peephole pass
	stream    *core.StreamResult
	wire      []byte // the encoded compile answer, until serve takes its digest
	digest    uint32 // CRC of the routed QASM, as qasmDigest and the stream path compute it
}

// wireResponse is the JSON shape the daemon encodes for a compile.
type wireResponse struct {
	Name          string                `json:"name,omitempty"`
	Device        string                `json:"device"`
	DeviceQubits  int                   `json:"device_qubits"`
	OriginalGates int                   `json:"original_gates"`
	OriginalDepth int                   `json:"original_depth"`
	Swaps         int                   `json:"swaps"`
	Bridges       int                   `json:"bridges"`
	AddedGates    int                   `json:"added_gates"`
	Gates         int                   `json:"gates"`
	Depth         int                   `json:"depth"`
	InitialLayout []int                 `json:"initial_layout"`
	FinalLayout   []int                 `json:"final_layout"`
	CacheHit      bool                  `json:"cache_hit"`
	Key           string                `json:"key"`
	ElapsedNS     int64                 `json:"elapsed_ns"`
	Passes        []pipeline.PassMetric `json:"passes"`
	QASM          string                `json:"qasm"`
}

func (s *inproc) serve(i int, r request) served {
	start := time.Now()
	root := s.tr.begin("request", i, -1)
	var out served
	switch {
	case s.w.stream:
		out = s.serveStream(i, root, r.key)
	case s.w.engine:
		out = s.serveEngine(i, root, r)
	default:
		out = s.servePipeline(i, root, r.key)
	}
	s.tr.end(root)
	out.dur = time.Since(start)
	// The digest is the benchmark's check, not the daemon's work: it is
	// taken outside the request's time, as the client takes it after
	// the last answer byte.
	if out.err == nil && out.wire != nil {
		out.digest, out.err = qasmDigest(out.wire)
		out.wire = nil
	}
	return out
}

func (s *inproc) parse(i, root int, k *key) (*circuit.Circuit, error) {
	id := s.tr.begin("qasm.parse", i, root)
	c, err := qasm.Parse(string(k.in.body))
	s.tr.end(id)
	return c, err
}

// respond renders the answer the way the daemon does: metrics, QASM
// text, JSON.
func (s *inproc) respond(i, root int, k *key, in *circuit.Circuit, res *core.Result, final *circuit.Circuit, passes []pipeline.PassMetric) served {
	id := s.tr.begin("metrics.compare", i, root)
	rep := metrics.Compare(in, final)
	orig := metrics.Measure(in)
	s.tr.end(id)
	id = s.tr.begin("qasm.format", i, root)
	text := qasm.Format(final)
	s.tr.end(id)
	id = s.tr.begin("sabred.encode", i, root)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(wireResponse{
		Name: in.Name(), Device: k.device, DeviceQubits: final.NumQubits(),
		OriginalGates: orig.Gates, OriginalDepth: orig.Depth, Swaps: res.SwapCount, Bridges: res.BridgeCount,
		AddedGates: res.AddedGates, Gates: rep.Gates, Depth: rep.Depth,
		InitialLayout: res.InitialLayout, FinalLayout: res.FinalLayout, Passes: passes, QASM: text,
	})
	s.tr.end(id)
	return served{err: err, final: final, wire: buf.Bytes()}
}

// servePipeline is the cache-miss path of one compile, pass by pass,
// as batch.Engine runs it.
func (s *inproc) servePipeline(i, root int, k *key) served {
	in, err := s.parse(i, root, k)
	if err != nil {
		return served{err: err}
	}
	opts := core.DefaultOptions()
	opts.Seed = k.seed
	job := batch.Job{Circuit: in, Device: s.devs[k.device], Options: opts, Passes: strings.Split(k.passes, ","), UseCalibration: true}
	id := s.tr.begin("batch.key", i, root)
	_ = batch.KeyOf(job.ResolveCalibration())
	s.tr.end(id)

	pc := &pipeline.Ctx{Circuit: in, Device: job.Device, Options: opts}
	passes := []pipeline.Pass{pipeline.RoutePass{Workers: s.workers}}
	for _, name := range job.Passes {
		p, err := pipeline.ByName(name)
		if err != nil {
			return served{err: err}
		}
		passes = append(passes, p)
	}
	var out served
	var metricsOut []pipeline.PassMetric
	for _, p := range passes {
		id := s.tr.begin(passSpan[p.Name()], i, root)
		t := time.Now()
		err := p.Run(pc)
		el := time.Since(t)
		s.tr.end(id)
		if err != nil {
			return served{err: fmt.Errorf("%s: %w", p.Name(), err)}
		}
		if p.Name() == "peephole" {
			out.peephole = [2]int{pc.Opt.GatesIn, pc.Opt.GatesOut}
		}
		id = s.tr.begin("pipeline.measure", i, root)
		metricsOut = append(metricsOut, pipeline.PassMetric{Pass: p.Name(), Elapsed: el, Gates: pc.Circuit.NumGates(), Depth: pc.Circuit.Depth()})
		s.tr.end(id)
	}
	r := s.respond(i, root, k, in, pc.Result, pc.Circuit, metricsOut)
	r.peephole = out.peephole
	return r
}

// passSpan names each pipeline pass after the layer it calls into.
var passSpan = map[string]string{
	"route":    "pipeline.route",
	"peephole": "opt.peephole",
	"basis":    "transpile.basis",
	"schedule": "sched.asap",
	"verify":   "verify.compliance",
}

// serveEngine is a compile through the shared engine (cache and
// single-flight), or a /jobs submission through the job queue.
func (s *inproc) serveEngine(i, root int, r request) served {
	k := r.key
	in, err := s.parse(i, root, k)
	if err != nil {
		return served{err: err}
	}
	opts := core.DefaultOptions()
	opts.Seed = k.seed
	job := batch.Job{Circuit: in, Device: s.devs[k.device], Options: opts, UseCalibration: true}
	var res batch.Result
	var wait time.Duration
	if r.job {
		id := s.tr.begin("jobqueue.submit", i, root)
		snap, err := s.queue.Submit(jobqueue.Request{Job: job})
		s.tr.end(id)
		if err != nil {
			return served{err: err}
		}
		id = s.tr.begin("jobqueue.wait", i, root)
		snap, err = s.queue.Wait(context.Background(), snap.ID, time.Minute)
		s.tr.end(id)
		if err != nil {
			return served{err: err}
		}
		if snap.State != jobqueue.StateDone || snap.Result == nil {
			return served{err: fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Err)}
		}
		res, wait = *snap.Result, snap.Started.Sub(snap.Created)
	} else {
		id := s.tr.begin("batch.submit", i, root)
		res = <-s.eng.SubmitContext(context.Background(), job)
		s.tr.end(id)
	}
	if res.Err != nil {
		return served{err: res.Err}
	}
	out := s.respond(i, root, k, in, res.Result, res.Final, res.PassMetrics)
	out.job, out.queueWait = r.job, wait
	return out
}

// scanBatch is how many gates the traced source scans per span; the
// router still pulls them one at a time.
const scanBatch = 1024

// batchedScanner is the daemon's incremental QASM reader, read ahead in
// batches so its time can be recorded without a clock read per gate.
type batchedScanner struct {
	sc       *qasm.GateScanner
	buf      []circuit.Gate
	pos      int
	eof      bool
	tr       *tracer
	req, par int
}

func (b *batchedScanner) Next() (circuit.Gate, bool, error) {
	if b.pos == len(b.buf) {
		if b.eof {
			return circuit.Gate{}, false, nil
		}
		id := b.tr.begin("qasm.scan", b.req, b.par)
		b.buf, b.pos = b.buf[:0], 0
		for len(b.buf) < scanBatch {
			g, ok, err := b.sc.Next()
			if err != nil {
				b.tr.end(id)
				return circuit.Gate{}, false, err
			}
			if !ok {
				b.eof = true
				break
			}
			b.buf = append(b.buf, g)
		}
		b.tr.end(id)
		if len(b.buf) == 0 {
			return circuit.Gate{}, false, nil
		}
	}
	b.pos++
	return b.buf[b.pos-1], true, nil
}

// tracedSink writes routed chunks as QASM, one span per chunk.
type tracedSink struct {
	w        *qasm.StreamWriter
	tr       *tracer
	req, par int
}

func (s *tracedSink) Emit(gates []circuit.Gate) error {
	id := s.tr.begin("qasm.stream_write", s.req, s.par)
	err := s.w.WriteGates(gates)
	s.tr.end(id)
	return err
}

func (s *inproc) serveStream(i, root int, k *key) served {
	dev := s.devs[k.device]
	opts := core.DefaultOptions()
	opts.Seed = k.seed
	id := s.tr.begin("core.stream", i, root)
	src := &batchedScanner{sc: qasm.NewGateScanner(bytes.NewReader(k.in.body)), tr: s.tr, req: i, par: id}
	crc := crc32.NewIEEE()
	sink := &tracedSink{w: qasm.NewStreamWriter(crc, dev.NumQubits()), tr: s.tr, req: i, par: id}
	res, err := core.RouteStream(context.Background(), src, dev, opts, core.StreamOptions{}, sink, s.scratch)
	if err == nil {
		err = sink.w.Flush()
	}
	s.tr.end(id)
	if err != nil {
		return served{err: err}
	}
	return served{stream: res, digest: crc.Sum32()}
}

// replay serves reqs in-process with the workload's concurrency and
// returns each outcome and the wall time.
func replay(s *inproc, reqs []request) ([]served, time.Duration) {
	out := make([]served, len(reqs))
	start := time.Now()
	closedLoops(s.w.conns, listClaim(len(reqs)), func(i int) { out[i] = s.serve(i, reqs[i]) })
	return out, time.Since(start)
}

// writeSpans writes a replay's spans as JSON lines.
func writeSpans(path, replayName string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Replay string `json:"replay"`
			span
		}{replayName, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
