package pipeline

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// cxCircuit returns a seeded CX-only circuit, the linear fragment over
// which routing equivalence is exactly decidable.
func cxCircuit(n, gates int, seed int64) *circuit.Circuit {
	c := workloads.RandomCircuit("cxonly", n, gates, 1.0, seed)
	out := circuit.NewNamed(c.Name(), c.NumQubits())
	for _, g := range c.Gates() {
		if g.Kind == circuit.KindCX {
			out.Append(g)
		}
	}
	return out
}

func TestEveryTrialOutputVerifies(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := cxCircuit(14, 90, 5)
	opts := core.DefaultOptions()
	opts.Seed = 7

	tr := TrialRunner{Trials: 6, Workers: 3}
	results, depths, err := tr.RunTrials(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 || len(depths) != 6 {
		t.Fatalf("expected 6 trial results, got %d/%d", len(results), len(depths))
	}
	for trial, res := range results {
		if err := verify.CheckRouted(circ, res.Circuit, res.InitialLayout, res.FinalLayout); err != nil {
			t.Errorf("trial %d output failed GF(2) verification: %v", trial, err)
		}
		if err := verify.HardwareCompliant(res.Circuit.DecomposeSwaps(), dev.Connected); err != nil {
			t.Errorf("trial %d output not hardware compliant: %v", trial, err)
		}
	}
}

func TestBestOfNNoWorseThanSingleTrial(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	opts := core.DefaultOptions()
	opts.Seed = 1

	queko, _ := workloads.KnownOptimal(dev, 300, 3)
	for name, circ := range map[string]*circuit.Circuit{
		"queko_tokyo": queko,
		"qft_16":      workloads.QFT(16),
	} {
		single := TrialRunner{Trials: 1}
		one, err := single.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatalf("%s single: %v", name, err)
		}
		multi := TrialRunner{Trials: 8, Workers: 4}
		eight, err := multi.Route(context.Background(), circ, dev, opts)
		if err != nil {
			t.Fatalf("%s multi: %v", name, err)
		}
		if eight.AddedGates > one.AddedGates {
			t.Errorf("%s: best-of-8 added %d gates, single trial added %d",
				name, eight.AddedGates, one.AddedGates)
		}
	}
}

// TestTrialRunnerMatchesCoreCompile: RoutePass's default backend, the
// trial pool at its default worker count, selects exactly what
// core.Compile selects for identical options.
func TestTrialRunnerMatchesCoreCompile(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(12)
	opts := core.DefaultOptions()
	opts.Seed = 9

	want, err := core.Compile(circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := New(RoutePass{Workers: 4}).Compile(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := pc.Result
	if qasm.Format(got.Circuit) != qasm.Format(want.Circuit) {
		t.Fatal("RoutePass result diverged from core.Compile for identical options")
	}
	if got.AddedGates != want.AddedGates || got.SwapCount != want.SwapCount {
		t.Fatalf("accounting diverged: route pass %d/%d vs compile %d/%d",
			got.AddedGates, got.SwapCount, want.AddedGates, want.SwapCount)
	}
}

// TestAdaptivePassRuns exercises the Patience plumbing through
// RoutePass.
func TestAdaptivePassRuns(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.GHZ(10)
	opts := core.DefaultOptions()
	opts.Seed = 11
	pm := New(RoutePass{Trials: 12, Patience: 2}, VerifyPass{})
	pc, err := pm.Compile(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Result.TrialsRun < 1 || pc.Result.TrialsRun > 12 {
		t.Fatalf("TrialsRun = %d", pc.Result.TrialsRun)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	m, err := Build("route", "peephole", "basis", "schedule", "verify")
	if err != nil {
		t.Fatal(err)
	}
	dev := arch.IBMQ20Tokyo()
	opts := core.DefaultOptions()
	opts.Seed = 3
	pc, err := m.Compile(context.Background(), workloads.QFT(10), dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Result == nil {
		t.Fatal("route pass did not record a result")
	}
	if pc.Schedule == nil || pc.Opt == nil {
		t.Fatal("schedule/peephole passes did not record outputs")
	}
	want := []string{"route", "peephole", "basis", "schedule", "verify"}
	if len(pc.Metrics) != len(want) {
		t.Fatalf("expected %d pass metrics, got %d", len(want), len(pc.Metrics))
	}
	for i, met := range pc.Metrics {
		if met.Pass != want[i] {
			t.Errorf("metric %d: pass %q, want %q", i, met.Pass, want[i])
		}
		if met.Gates <= 0 || met.Depth <= 0 {
			t.Errorf("metric %d (%s): empty snapshot %+v", i, met.Pass, met)
		}
	}
	if err := verify.HardwareCompliant(pc.Circuit.DecomposeSwaps(), dev.Connected); err != nil {
		t.Fatalf("pipeline output not compliant: %v", err)
	}
}

func TestParsePassAndSource(t *testing.T) {
	const src = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
cx q[0], q[1];
cx q[1], q[2];
cx q[0], q[2];
`
	m, err := Build("parse", "route", "verify")
	if err != nil {
		t.Fatal(err)
	}
	pc := &Ctx{Source: src, Device: arch.Line(3), Options: core.DefaultOptions()}
	if err := m.Run(pc); err != nil {
		t.Fatal(err)
	}
	if pc.Original == nil || pc.Original.NumGates() != 3 {
		t.Fatalf("parse pass did not produce the 3-gate circuit")
	}
}

func TestLayoutThenRouteUsesLayout(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := workloads.QFT(8)
	opts := core.DefaultOptions()
	opts.Seed = 5

	m, err := Build("layout", "route", "verify")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := m.Compile(context.Background(), circ, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Layout.Size() != dev.NumQubits() {
		t.Fatalf("layout pass produced size-%d layout", pc.Layout.Size())
	}
	for q, p := range pc.Layout.LogicalToPhysical() {
		if pc.Result.InitialLayout[q] != p {
			t.Fatalf("route pass ignored the layout pass output at logical %d", q)
		}
	}
}

func TestBaselineRoutersDropIn(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circ := cxCircuit(10, 60, 2)
	for _, name := range []string{"route:greedy", "route:astar"} {
		m, err := Build(name, "verify")
		if err != nil {
			t.Fatal(err)
		}
		pc, err := m.Compile(context.Background(), circ, dev, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pc.Metrics[0].Pass != name {
			t.Fatalf("%s: metric named %q", name, pc.Metrics[0].Pass)
		}
	}
}

func TestBuildRejectsUnknownPass(t *testing.T) {
	if _, err := Build("route", "nonsense"); err == nil {
		t.Fatal("expected error for unknown pass")
	}
	if _, err := Build("route:quantum-annealer"); err == nil {
		t.Fatal("expected error for unknown router")
	}
	if err := PostRouting([]string{"peephole", "verify"}); err != nil {
		t.Fatal(err)
	}
	if err := PostRouting([]string{"route"}); err == nil {
		t.Fatal("route must not be accepted as a post-routing pass")
	}
}

func TestCalibratePassPinsSnapshot(t *testing.T) {
	dev := arch.Ring(4)
	circ := cxCircuit(4, 12, 3)

	// Uncalibrated device: the pass is a no-op.
	m, err := Build("calibrate", "route", "verify")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := m.Compile(context.Background(), circ, dev, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pc.CalVersion != 0 || pc.Options.Noise != nil {
		t.Fatal("calibrate pass must be a no-op on an uncalibrated device")
	}

	snap, err := dev.ApplyCalibration(arch.UniformNoise(0.02))
	if err != nil {
		t.Fatal(err)
	}
	pc, err = m.Compile(context.Background(), circ, dev, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pc.CalVersion != snap.Version {
		t.Fatalf("CalVersion = %d, want %d", pc.CalVersion, snap.Version)
	}
	if pc.Options.Noise != snap.Model {
		t.Fatal("calibrate pass did not substitute the snapshot's noise model")
	}
	if pc.Metrics[0].Pass != "calibrate" {
		t.Fatalf("first metric is %q, want calibrate", pc.Metrics[0].Pass)
	}
}
