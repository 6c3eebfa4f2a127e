package sabre

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The facade tests exercise the public API end to end, the way a
// downstream user would.

func TestQuickstartFlow(t *testing.T) {
	dev := IBMQ20Tokyo()
	circ := QFT(8)
	res, err := Compile(circ, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCompliant(res.Circuit, dev); err != nil {
		t.Fatal(err)
	}
	if res.Circuit.NumQubits() != dev.NumQubits() {
		t.Fatal("routed circuit not device-wide")
	}
	rep := CompareCircuits(circ, res.Circuit)
	if rep.AddedGates != res.AddedGates {
		t.Fatalf("metrics (%d) disagree with result (%d)", rep.AddedGates, res.AddedGates)
	}
}

func TestBuildCompileVerifyLinear(t *testing.T) {
	c := NewCircuit(4)
	c.Append(CX(0, 1), CX(0, 2), CX(0, 3), CX(2, 3))
	dev := LineDevice(5)
	res, err := Compile(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRouted(c, res); err != nil {
		t.Fatal(err)
	}
}

func TestStateVerification(t *testing.T) {
	c := NewCircuit(4)
	c.Append(G1(KindH, 0), CX(0, 1), CX(1, 2), G1(KindT, 2), CX(2, 3))
	dev := RingDevice(5)
	res, err := Compile(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRoutedStates(c, res, 2, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}

func TestQASMRoundTripThroughCompile(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[3];
cx q[1],q[2];
cx q[0],q[2];
`
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	dev := GridDevice(2, 2)
	res, err := Compile(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := FormatQASM(res.Circuit.DecomposeSwaps())
	back, err := ParseQASM(text)
	if err != nil {
		t.Fatalf("emitted QASM does not reparse: %v\n%s", err, text)
	}
	if back.NumGates() != res.Circuit.DecomposeSwaps().NumGates() {
		t.Fatal("QASM round trip lost gates")
	}
	if !strings.Contains(text, "OPENQASM 2.0;") {
		t.Fatal("missing header")
	}
}

func TestCustomDevice(t *testing.T) {
	dev, err := NewDevice("T", 4, []Edge{CouplingEdge(0, 1), CouplingEdge(1, 2), CouplingEdge(1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCircuit(4)
	c.Append(CX(0, 3), CX(2, 3))
	res, err := Compile(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRouted(c, res); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesExposed(t *testing.T) {
	c := RandomCircuit("pub", 6, 40, 0.6, 3)
	dev := GridDevice(2, 3)
	g, err := GreedyCompile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCompliant(g.Circuit, dev); err != nil {
		t.Fatal(err)
	}
}

func TestFidelityAndDuration(t *testing.T) {
	em := Q20ErrorModel()
	c := GHZ(5)
	f := EstimateFidelity(c, em)
	if f <= 0 || f >= 1 {
		t.Fatalf("fidelity %g out of range", f)
	}
	if EstimateDuration(c, em) <= 0 {
		t.Fatal("duration missing")
	}
}

func TestSimulateGHZ(t *testing.T) {
	amps := Simulate(GHZ(3))
	w := 1 / math.Sqrt2
	if math.Abs(real(amps[0])-w) > 1e-9 || math.Abs(real(amps[7])-w) > 1e-9 {
		t.Fatal("GHZ amplitudes wrong")
	}
}

func TestBenchmarkSuiteExposed(t *testing.T) {
	if len(Benchmarks()) != 26 {
		t.Fatal("suite size wrong")
	}
	b, ok := BenchmarkByName("qft_10")
	if !ok || b.N != 10 {
		t.Fatal("lookup broken")
	}
	if b.Build().NumQubits() != 10 {
		t.Fatal("build broken")
	}
}

func TestFindInitialMapping(t *testing.T) {
	dev := IBMQ20Tokyo()
	c := Ising(8, 3)
	l, err := FindInitialMapping(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileWithLayout(c, dev, l, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 {
		t.Fatalf("ising with reverse-traversal layout used %d swaps", res.SwapCount)
	}
}

// TestFindInitialMappingIsCompileLayout: the standalone layout is the
// winning trial's, not the output of a second search, so it equals
// Compile's InitialLayout under every option family that changes the
// search (bridges, noise with coupler pruning, the traversal count).
func TestFindInitialMappingIsCompileLayout(t *testing.T) {
	for _, dev := range []*Device{IBMQ20Tokyo(), IBMQX5()} {
		noise := RandomNoise(dev, 1e-3, 1e-1, rand.New(rand.NewSource(3)))
		for _, cfg := range []struct {
			name string
			mut  func(*Options)
		}{
			{"default", func(*Options) {}},
			{"bridge", func(o *Options) { o.UseBridge = true }},
			{"noise", func(o *Options) { o.Noise, o.MaxEdgeError = noise, 0.05 }},
			{"traversals1", func(o *Options) { o.Traversals = 1 }},
			{"traversals5", func(o *Options) { o.Traversals = 5 }},
		} {
			for _, name := range []string{"4gt13_92", "qft_10", "ising_model_13", "rd84_142"} {
				b, ok := BenchmarkByName(name)
				if !ok {
					t.Fatalf("unknown benchmark %s", name)
				}
				opts := DefaultOptions()
				opts.Seed = 2
				cfg.mut(&opts)
				c := b.Build()
				l, err := FindInitialMapping(c, dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Compile(c, dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := l.LogicalToPhysical(); !slices.Equal(got, res.InitialLayout) {
					t.Errorf("%s/%s/%s: FindInitialMapping %v, Compile's InitialLayout %v",
						dev.Name(), cfg.name, name, got, res.InitialLayout)
				}
			}
		}
	}
}

func TestOptimizeExposed(t *testing.T) {
	c := NewCircuit(2)
	c.Append(G1(KindH, 0), G1(KindH, 0), CX(0, 1))
	res := Optimize(c)
	if res.Circuit.NumGates() != 1 || res.Removed != 2 {
		t.Fatalf("optimize wrong: %+v", res)
	}
}

func TestScheduleExposed(t *testing.T) {
	c := GHZ(4)
	s := ScheduleASAP(c)
	if s.Depth() != c.Depth() {
		t.Fatal("schedule depth mismatch")
	}
	if err := s.Valid(); err != nil {
		t.Fatal(err)
	}
	l := ScheduleALAP(c)
	if l.Depth() != c.Depth() {
		t.Fatal("ALAP depth mismatch")
	}
	if s.Render() == "" {
		t.Fatal("render empty")
	}
}

func TestNewDevicesExposed(t *testing.T) {
	for _, d := range []*Device{IBMFalcon27(), RigettiAspen(2), Sycamore(3, 4)} {
		if d.NumQubits() == 0 {
			t.Fatalf("%s empty", d.Name())
		}
		c := GHZ(4)
		res, err := Compile(c, d, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if err := VerifyCompliant(res.Circuit, d); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
}

func TestNoiseExposed(t *testing.T) {
	dev := IBMQ20Tokyo()
	noise := RandomNoise(dev, 0.005, 0.05, rand.New(rand.NewSource(1)))
	opts := DefaultOptions()
	opts.Trials = 2
	opts.Noise = noise
	opts.MaxEdgeError = 0.04
	res, err := Compile(QFT(8), dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCompliant(res.Circuit, dev); err != nil {
		t.Fatal(err)
	}
	if UniformNoise(0.01).Error(CouplingEdge(0, 1)) != 0.01 {
		t.Fatal("uniform noise wrong")
	}
}

func TestBreakdownExposed(t *testing.T) {
	dev := LineDevice(5)
	c := QFT(5)
	res, err := Compile(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := BreakdownCircuits(c, res.Circuit)
	if b.AddedGates != res.AddedGates {
		t.Fatalf("breakdown disagrees with result: %d vs %d", b.AddedGates, res.AddedGates)
	}
	u := QubitUtilization(res.Circuit)
	if len(u) != 5 {
		t.Fatal("utilization width wrong")
	}
}

func TestToffoliExposed(t *testing.T) {
	gates := Toffoli(0, 1, 2)
	if len(gates) != 15 {
		t.Fatal("toffoli decomposition wrong")
	}
	c := NewCircuit(3)
	c.Append(gates...)
	if c.CountKind(KindCX) != 6 {
		t.Fatal("CNOT count wrong")
	}
}
