// Golden determinism suite for the routing core's scoring engines:
// the branch-free bitset engine (the default) and the exhaustive
// reference must route byte-identically over the entire Table II
// workload suite — same output circuits, same layouts, same pass
// statistics — at any trial worker count, including under a noise
// model (float-weighted distances) and with bridges enabled. Both
// share one candidate order (ascending dense edge id) and one
// tie-break comparison sequence, so they consume the same RNG stream;
// this suite is the proof.
package sabre_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// assertSameResult fails unless a and b are byte-identical routing
// outcomes: gate-for-gate equal circuits, equal layouts, and equal
// instrumentation.
func assertSameResult(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if !a.Circuit.Equal(b.Circuit) {
		t.Fatalf("%s: routed circuits differ (%d vs %d gates)", label, a.Circuit.NumGates(), b.Circuit.NumGates())
	}
	if len(a.InitialLayout) != len(b.InitialLayout) {
		t.Fatalf("%s: initial layout sizes differ", label)
	}
	for i := range a.InitialLayout {
		if a.InitialLayout[i] != b.InitialLayout[i] || a.FinalLayout[i] != b.FinalLayout[i] {
			t.Fatalf("%s: layouts differ at qubit %d", label, i)
		}
	}
	if a.SwapCount != b.SwapCount || a.BridgeCount != b.BridgeCount || a.AddedGates != b.AddedGates {
		t.Fatalf("%s: counts differ: swaps %d/%d bridges %d/%d", label,
			a.SwapCount, b.SwapCount, a.BridgeCount, b.BridgeCount)
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: pass stats differ: %+v vs %+v", label, a.Stats, b.Stats)
	}
}

// goldenEngines is the engine pair every golden test sweeps: the
// production engine and its from-scratch oracle.
var goldenEngines = []struct {
	name    string
	scoring core.Scoring
}{
	{"bitset", core.ScoringBitset},
	{"exhaustive", core.ScoringExhaustive},
}

// goldenWorkers are the trial-pool sizes every golden test sweeps.
var goldenWorkers = []int{1, 2, 4, 8}

// TestGoldenScoringEnginesFullSuite routes every Table II benchmark
// under both scoring engines at trial worker counts 1, 2, 4 and 8,
// and asserts every combination produces the byte-identical result
// (circuits, layouts, pass statistics). This is the full determinism
// contract in one sweep: engine-independence (shared candidate order
// and tie-break RNG stream) and worker-count-independence (per-worker
// scratch isolation) at once.
func TestGoldenScoringEnginesFullSuite(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	for _, b := range workloads.All() {
		circ := b.Build()
		var ref *core.Result
		for _, eng := range goldenEngines {
			opts := core.DefaultOptions()
			opts.Trials = 2 // keeps the full-suite sweep inside tier-1 budget
			opts.Scoring = eng.scoring
			for _, workers := range goldenWorkers {
				tr := pipeline.TrialRunner{Trials: 2, Workers: workers}
				res, err := tr.Route(context.Background(), circ, dev, opts)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", b.Name, eng.name, workers, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				assertSameResult(t, b.Name+"/"+eng.name, ref, res)
			}
		}
	}
}

// TestGoldenNoiseAndBridgeConfigs covers the two scoring paths the
// plain suite does not reach — float-weighted distances (noise model +
// coupler pruning) and the 4-CNOT bridge transformation — plus the
// basic and look-ahead heuristics, under both engines through Compile
// and trial pools of 1, 2, 4 and 8 workers.
func TestGoldenNoiseAndBridgeConfigs(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.RandomCircuit("golden", 14, 300, 0.6, 5)

	for _, tc := range []struct {
		name string
		mut  func(*core.Options)
	}{
		{"bridge", func(o *core.Options) { o.UseBridge = true }},
		{"noise", func(o *core.Options) {
			o.Noise = arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(7)))
			o.MaxEdgeError = 0.05
		}},
		{"noise+bridge", func(o *core.Options) {
			o.Noise = arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(11)))
			o.UseBridge = true
		}},
		{"basic", func(o *core.Options) { o.Heuristic = core.HeuristicBasic }},
		{"lookahead", func(o *core.Options) { o.Heuristic = core.HeuristicLookahead }},
	} {
		var ref *core.Result
		for _, eng := range goldenEngines {
			opts := core.DefaultOptions()
			opts.Trials = 2
			opts.Scoring = eng.scoring
			tc.mut(&opts)

			res, err := core.Compile(circ, dev, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, eng.name, err)
			}
			if ref == nil {
				ref = res
			} else {
				assertSameResult(t, tc.name+"/"+eng.name, ref, res)
			}
			for _, workers := range goldenWorkers {
				res, err := pipeline.TrialRunner{Workers: workers}.Route(context.Background(), circ, dev, opts)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tc.name, eng.name, workers, err)
				}
				assertSameResult(t, tc.name+"/"+eng.name, ref, res)
			}
		}
		if tc.name == "bridge" && ref.BridgeCount == 0 {
			t.Fatal("bridge config routed zero bridges; the golden test is not exercising the bridge path")
		}
	}
}

// TestGoldenTrialRunnerWorkerInvariance runs the best-of-N trial
// protocol at several worker counts (including an odd count and the
// machine's own GOMAXPROCS) with a deeper trial budget than the
// full-suite sweep, across both scoring engines, and asserts
// every combination selects the byte-identical winner: per-worker
// scratch reuse must never leak state between trials.
func TestGoldenTrialRunnerWorkerInvariance(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for _, name := range []string{"qft_13", "rd84_142", "ising_model_13"} {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		circ := b.Build()
		var ref *core.Result
		for _, eng := range goldenEngines {
			opts := core.DefaultOptions()
			opts.Trials = 6
			opts.Scoring = eng.scoring
			for _, workers := range workerCounts {
				tr := pipeline.TrialRunner{Trials: 6, Workers: workers}
				res, err := tr.Route(context.Background(), circ, dev, opts)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, eng.name, workers, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				assertSameResult(t, name+"/"+eng.name, ref, res)
			}
		}
	}
}

// TestBridgeSharesExtendedSetPerRound is the regression test for the
// double-computation bug: tryBridge used to build the extended set and
// insertBestSwap immediately rebuilt it within the same round. With
// the front-generation cache, one round triggers at most one rebuild,
// so the rebuild count is bounded by the number of rounds that consult
// the set (swap rounds + bridge executions); the old behavior was ~2×
// the swap rounds and trips the bound.
func TestBridgeSharesExtendedSetPerRound(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.RandomCircuit("bridge-regress", 14, 300, 0.6, 5)
	opts := core.DefaultOptions()
	opts.Trials = 2
	opts.UseBridge = true
	res, err := core.Compile(circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SwapRounds == 0 || res.BridgeCount == 0 {
		t.Fatalf("workload does not exercise bridge+swap rounds: %+v", res.Stats)
	}
	limit := res.Stats.SwapRounds + res.BridgeCount
	if res.Stats.ExtendedRebuilds > limit {
		t.Fatalf("extended set rebuilt %d times for %d swap rounds + %d bridges — recomputed more than once per round",
			res.Stats.ExtendedRebuilds, res.Stats.SwapRounds, res.BridgeCount)
	}
}

// TestRoutedOutputStillValid spot-checks that a bitset-scored routing
// remains hardware-compliant: every two-qubit gate of the decomposed
// output acts on coupled physical qubits.
func TestRoutedOutputStillValid(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	b, _ := workloads.ByName("qft_16")
	res, err := core.Compile(b.Build(), dev, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range res.Circuit.DecomposeSwaps().Gates() {
		if g.TwoQubit() && !dev.Connected(g.Q0, g.Q1) {
			t.Fatalf("gate %d (%v %d,%d) on uncoupled qubits", i, g.Kind, g.Q0, g.Q1)
		}
	}
}
