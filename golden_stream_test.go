// Golden determinism suite for the streaming compilation mode: the
// windowed slot-arena path (RouteStream) must produce byte-identical
// output — same gate sequence, same layouts, same instrumentation —
// as the materialized-DAG oracle (RouteStreamMaterialized) over the
// entire Table II workload suite, and that output must be invariant
// under concurrency: many streams routed in parallel on per-worker
// warm Scratches yield exactly the single-threaded result. Together
// with the core package's parity tests this is the streaming
// determinism contract in one sweep.
package sabre_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	sabre "repro"
	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/workloads"
)

// gateSink accumulates emitted chunks into one gate slice, copying
// because Emit's buffer is reused.
type gateSink struct {
	gates []circuit.Gate
}

func (g *gateSink) Emit(chunk []circuit.Gate) error {
	g.gates = append(g.gates, chunk...)
	return nil
}

// streamOutcome is everything the parity assertion compares.
type streamOutcome struct {
	gates []circuit.Gate
	res   *core.StreamResult
}

func assertSameStream(t *testing.T, label string, a, b *streamOutcome) {
	t.Helper()
	if len(a.gates) != len(b.gates) {
		t.Fatalf("%s: emitted %d vs %d gates", label, len(a.gates), len(b.gates))
	}
	for i := range a.gates {
		x, y := a.gates[i], b.gates[i]
		if x.Kind != y.Kind || x.Q0 != y.Q0 || x.Q1 != y.Q1 || len(x.Params) != len(y.Params) {
			t.Fatalf("%s: gate %d differs: %v vs %v", label, i, x, y)
		}
		for j := range x.Params {
			if x.Params[j] != y.Params[j] {
				t.Fatalf("%s: gate %d param %d differs", label, i, j)
			}
		}
	}
	for i := range a.res.InitialLayout {
		if a.res.InitialLayout[i] != b.res.InitialLayout[i] || a.res.FinalLayout[i] != b.res.FinalLayout[i] {
			t.Fatalf("%s: layouts differ at qubit %d", label, i)
		}
	}
	as, bs := a.res.Stats, b.res.Stats
	if as.SwapCount != bs.SwapCount || as.BridgeCount != bs.BridgeCount ||
		as.SwapRounds != bs.SwapRounds || as.ForcedRoutes != bs.ForcedRoutes ||
		as.GatesIn != bs.GatesIn || as.GatesOut != bs.GatesOut {
		t.Fatalf("%s: stream stats differ: %+v vs %+v", label, as, bs)
	}
}

// TestGoldenStreamingFullSuite streams every Table II benchmark
// through the windowed path and asserts byte-parity against the
// materialized oracle, then repeats the whole windowed sweep on
// worker pools of 1, 2, 4 and 8 goroutines (per-worker warm Scratch,
// workloads pulled off a shared queue) under both scoring engines and
// asserts every combination reproduces the same bytes — per-worker
// scratch reuse must never leak state between streams, and the
// engines score streams as identically as materialized passes.
func TestGoldenStreamingFullSuite(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	opts := core.DefaultOptions()
	sopts := core.DefaultStreamOptions()
	suite := workloads.All()

	// Materialized-oracle reference, one per workload.
	ref := make(map[string]*streamOutcome, len(suite))
	for _, b := range suite {
		sink := &gateSink{}
		res, err := core.RouteStreamMaterialized(context.Background(), b.Build(), dev, opts, sopts, sink)
		if err != nil {
			t.Fatalf("%s: materialized: %v", b.Name, err)
		}
		ref[b.Name] = &streamOutcome{gates: sink.gates, res: res}
	}

	for _, eng := range goldenEngines {
		opts := opts
		opts.Scoring = eng.scoring
		for _, workers := range goldenWorkers {
			streamSuiteSweep(t, eng.name, workers, suite, dev, opts, sopts, ref)
		}
	}
}

// streamSuiteSweep routes suite through the windowed path on a pool
// of workers and asserts every stream matches ref.
func streamSuiteSweep(t *testing.T, engine string, workers int, suite []workloads.Benchmark, dev *arch.Device, opts core.Options, sopts core.StreamOptions, ref map[string]*streamOutcome) {
	t.Helper()
	queue := make(chan workloads.Benchmark, len(suite))
	for _, b := range suite {
		queue <- b
	}
	close(queue)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	outs := make([]map[string]*streamOutcome, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := core.NewScratch() // warm across this worker's streams
			got := make(map[string]*streamOutcome)
			outs[w] = got
			for b := range queue {
				sink := &gateSink{}
				res, err := core.RouteStream(context.Background(),
					core.NewCircuitSource(b.Build()), dev, opts, sopts, sink, scratch)
				if err != nil {
					errs <- err
					return
				}
				got[b.Name] = &streamOutcome{gates: sink.gates, res: res}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("%s workers=%d: %v", engine, workers, err)
	}

	routed := 0
	for w := range outs {
		for name, got := range outs[w] {
			assertSameStream(t, engine+"/"+name, ref[name], got)
			routed++
		}
	}
	if routed != len(suite) {
		t.Fatalf("%s workers=%d: routed %d workloads, want %d", engine, workers, routed, len(suite))
	}
}

// TestFacadeCompileStream drives the whole public streaming surface:
// QASM in through a GateScanner, routed through CompileStream with a
// verifying sink, serialized back out through a QASMStreamWriter —
// and the bytes must match the core-level materialized oracle.
func TestFacadeCompileStream(t *testing.T) {
	dev := sabre.IBMQ20Tokyo()
	circ := workloads.RandomCircuit("facade-stream", 15, 2000, 0.5, 9)
	var src bytes.Buffer
	if err := qasm.Write(&src, circ); err != nil {
		t.Fatal(err)
	}
	opts := sabre.DefaultOptions()
	sopts := sabre.DefaultStreamOptions()

	var out bytes.Buffer
	sw := sabre.NewQASMStreamWriter(&out, dev.NumQubits())
	sink := sabre.NewVerifySink(sw, dev)
	res, err := sabre.CompileStream(context.Background(),
		sabre.NewGateScanner(&src), dev, opts, sopts, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.GatesIn != 2000 || res.Stats.GatesOut < res.Stats.GatesIn {
		t.Fatalf("stats gates in/out = %d/%d", res.Stats.GatesIn, res.Stats.GatesOut)
	}
	if res.Stats.GatesPerSec <= 0 {
		t.Fatalf("gates/sec = %v", res.Stats.GatesPerSec)
	}

	// Core-level oracle over the same circuit, serialized identically.
	var want bytes.Buffer
	ow := qasm.NewStreamWriter(&want, dev.NumQubits())
	if _, err := core.RouteStreamMaterialized(context.Background(), circ, dev, opts, sopts, ow); err != nil {
		t.Fatal(err)
	}
	if err := ow.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("facade stream differs from materialized oracle (%d vs %d bytes)", out.Len(), want.Len())
	}
}
