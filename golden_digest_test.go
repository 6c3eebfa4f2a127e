// Absolute output pins for the routing core. The other golden suites
// compare engines, worker counts and the two streaming dependency
// stores with each other, so a change that shifts every path the same
// way passes them. This suite hashes the actual routed output of every
// Table II workload — gates, layouts, SWAP and bridge counts — through
// the materialized multi-trial compile under each configuration family
// and through the windowed streaming compiler, and compares the
// sha256 against digests recorded before the traversal was refactored.
// A mismatch means routing behaviour changed; if that is intended,
// re-record the digest and say so in the change description.
package sabre_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	sabre "repro"
	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/route"
	"repro/internal/workloads"
)

// digestWriter feeds routing outcomes into one sha256 in a fixed
// little-endian encoding.
type digestWriter struct {
	h   hash.Hash
	buf []byte
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) ints(vs ...int) {
	d.buf = d.buf[:0]
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(int64(v)))
	}
	d.h.Write(d.buf)
}

func (d *digestWriter) gates(gs []circuit.Gate) {
	d.ints(len(gs))
	for _, g := range gs {
		d.ints(int(g.Kind), g.Q0, g.Q1, len(g.Params))
		for _, p := range g.Params {
			d.ints(int(math.Float64bits(p)))
		}
	}
}

func (d *digestWriter) layout(l []int) {
	d.ints(len(l))
	d.ints(l...)
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// goldenDigests are the sha256 digests of the whole Table II suite per
// configuration.
var goldenDigests = map[string]string{
	"compile/default":       "7d271568bd88acede1867ded5bc4c30af664525fc9507d63fe4356cf041c4568",
	"compile/bridge":        "0c709c15af0a1fb70932a70f2e71f0312538f6bb7fe5b2aebccdabb8101a8035",
	"compile/noise":         "9fd0b521e44f585e074fce86d629511fa42297931d2bb7f3577d8cc8abc1ae5e",
	"compile/basic":         "359228eede02e52b41c084279735e33569e52592c0fa905c4465dca776feac46",
	"compile/lookahead":     "fa4dde0b4bfcf36ee709288252d51f52daadd5ec83545314b9895abcb3435ef4",
	"stream/default":        "9740375d4dc3020b61f672c51a284dd553b34cb57a97de40085e0f69411ec678",
	"stream/lookahead16":    "2d41aac42eadc9927fbf857464eba34ef17961de34b317f963f6a18a00ab6fa9",
	"route/anneal":          "4e65da303ce3eda5a39fa0ebe46e4769fb9c8d67485b97533fa437c6ed101ef5",
	"route/anneal-noise":    "28cd02b8b124bba7019061006145db25c37febfe93e25074cf6b1748ce28c732",
	"route/tokenswap":       "2e2417478825096e7d29a8cfb836a4188a1ef6799b46552a646a091108cf834f",
	"route/tokenswap-noise": "335feb3682c239f50d6ca43d8ffc856a6ef6d3617f3fae9b228cc63c3b546479",
	"layout/identity":       "50d3c04d376edf6146aba36754cc1c12c0622cd3b77ef387b6298599a534d05e",
	"layout/identity-noise": "c172aa6843276bd2cc27b58d2d0280799127284cc6c51779d4dfd5c6211cbd4d",
}

func checkDigest(t *testing.T, name, got string) {
	t.Helper()
	if want := goldenDigests[name]; got != want {
		t.Errorf("%s: output digest %s, pinned %s (routing behaviour changed)", name, got, want)
	}
}

// TestGoldenDigestCompile pins core.Compile (2 trials, the default 3
// traversals) over every Table II workload under the default decay
// heuristic, bridges, a noise model with coupler pruning, and the
// basic and lookahead heuristics.
func TestGoldenDigestCompile(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	noise := arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(7)))
	for _, tc := range []struct {
		name string
		mut  func(*core.Options)
	}{
		{"compile/default", func(*core.Options) {}},
		{"compile/bridge", func(o *core.Options) { o.UseBridge = true }},
		{"compile/noise", func(o *core.Options) { o.Noise = noise; o.MaxEdgeError = 0.05 }},
		{"compile/basic", func(o *core.Options) { o.Heuristic = core.HeuristicBasic }},
		{"compile/lookahead", func(o *core.Options) { o.Heuristic = core.HeuristicLookahead }},
	} {
		opts := core.DefaultOptions()
		opts.Trials = 2
		tc.mut(&opts)
		d := newDigestWriter()
		for _, b := range workloads.All() {
			res, err := core.Compile(b.Build(), dev, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, b.Name, err)
			}
			d.gates(res.Circuit.Gates())
			d.layout(res.InitialLayout)
			d.layout(res.FinalLayout)
			d.ints(res.SwapCount, res.BridgeCount)
		}
		checkDigest(t, tc.name, d.sum())
	}
}

// TestGoldenDigestStream pins core.RouteStream over every Table II
// workload at the default StreamOptions and at a 16-gate lookahead,
// where the bounded admission window changes routing decisions.
func TestGoldenDigestStream(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	for _, tc := range []struct {
		name  string
		sopts core.StreamOptions
	}{
		{"stream/default", core.DefaultStreamOptions()},
		{"stream/lookahead16", core.StreamOptions{Lookahead: 16}},
	} {
		d := newDigestWriter()
		s := core.NewScratch()
		for _, b := range workloads.All() {
			sink := &gateSink{}
			res, err := core.RouteStream(context.Background(), core.NewCircuitSource(b.Build()),
				dev, core.DefaultOptions(), tc.sopts, sink, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, b.Name, err)
			}
			d.gates(sink.gates)
			d.layout(res.InitialLayout)
			d.layout(res.FinalLayout)
			d.ints(res.Stats.SwapCount, res.Stats.BridgeCount)
		}
		checkDigest(t, tc.name, d.sum())
	}
}

// result hashes one routed outcome with its full accounting.
func (d *digestWriter) result(res *core.Result) {
	d.gates(res.Circuit.Gates())
	d.layout(res.InitialLayout)
	d.layout(res.FinalLayout)
	d.ints(res.SwapCount, res.BridgeCount, res.AddedGates, res.FirstTraversalAdded, res.TrialsRun)
}

// TestGoldenDigestRouters pins the anneal and tokenswap backends
// (2 trials; anneal at 2 chains of 8 steps) over the Table II
// workloads of at most 5k gates, with hop distances and under a noise
// model with coupler pruning.
func TestGoldenDigestRouters(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	noise := arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(7)))
	for _, tc := range []struct {
		name   string
		router core.Router
		noisy  bool
	}{
		{"route/anneal", route.AnnealRouter{Iterations: 8, Chains: 2}, false},
		{"route/anneal-noise", route.AnnealRouter{Iterations: 8, Chains: 2}, true},
		{"route/tokenswap", route.TokenSwapRouter{}, false},
		{"route/tokenswap-noise", route.TokenSwapRouter{}, true},
	} {
		opts := core.DefaultOptions()
		opts.Trials = 2
		if tc.noisy {
			opts.Noise, opts.MaxEdgeError = noise, 0.05
		}
		d := newDigestWriter()
		for _, b := range workloads.All() {
			if b.Gori > 5000 {
				continue
			}
			res, err := tc.router.Route(context.Background(), b.Build(), dev, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, b.Name, err)
			}
			d.result(res)
		}
		checkDigest(t, tc.name, d.sum())
	}
}

// TestGoldenDigestFixedLayout pins fixed-layout routing (one forward
// traversal from the identity layout) over every Table II workload,
// with hop distances and under a noise model with coupler pruning.
func TestGoldenDigestFixedLayout(t *testing.T) {
	dev := sabre.IBMQ20Tokyo()
	noise := arch.RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(7)))
	for _, tc := range []struct {
		name  string
		noisy bool
	}{
		{"layout/identity", false},
		{"layout/identity-noise", true},
	} {
		opts := sabre.DefaultOptions()
		if tc.noisy {
			opts.Noise, opts.MaxEdgeError = noise, 0.05
		}
		d := newDigestWriter()
		for _, b := range workloads.All() {
			res, err := sabre.CompileWithLayout(b.Build(), dev, mapping.Identity(dev.NumQubits()), opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, b.Name, err)
			}
			d.result(res)
		}
		checkDigest(t, tc.name, d.sum())
	}
}
