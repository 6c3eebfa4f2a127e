package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/verify"
)

// fuzzDevices are the coupling graphs FuzzRoute routes onto: a line
// (the hardest to route on), a grid and the paper's IBM Q20 Tokyo.
var fuzzDevices = []string{"line:8", "grid:3x3", "tokyo"}

// maxFuzzGates bounds a decoded circuit so one input stays cheap for
// every router, A* included.
const maxFuzzGates = 48

// decodeRouteInput turns fuzz bytes into a device and a circuit of at
// most 8 qubits: byte 0 picks the device, byte 1 the width, and each
// following byte pair (op, arg) one gate — a CX when op is even (arg
// picks the control, op the target offset), otherwise a single-qubit
// gate on qubit arg (h, x, y, z, s, sdg, t, tdg, or rz with an angle
// from op).
func decodeRouteInput(data []byte) (*arch.Device, *circuit.Circuit, error) {
	if len(data) < 2 {
		return nil, nil, errors.New("short input")
	}
	dev, err := arch.FromSpec(fuzzDevices[int(data[0])%len(fuzzDevices)])
	if err != nil {
		return nil, nil, err
	}
	n := 1 + int(data[1])%8
	c := circuit.New(n)
	for body := data[2:]; len(body) >= 2 && c.NumGates() < maxFuzzGates; body = body[2:] {
		op, a := int(body[0]), int(body[1])%n
		if op%2 == 0 && n > 1 {
			c.Append(circuit.CX(a, (a+1+(op/2)%(n-1))%n))
			continue
		}
		if k := (op / 2) % 9; k < 8 {
			c.Append(circuit.G1(circuit.Kind(k), a))
		} else {
			c.Append(circuit.G1(circuit.KindRZ, a, float64(op)/16))
		}
	}
	return dev, c, nil
}

// FuzzRoute routes a decoded circuit through every registry router and
// through the layout,route pipeline, each followed by the verify pass
// (hardware compliance, plus GF(2) equivalence when the circuit is
// linear), and checks every output against the input by statevector
// simulation. A* running out of its node budget is the only refusal
// allowed.
func FuzzRoute(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dev, circ, err := decodeRouteInput(data)
		if err != nil {
			return
		}
		opts := core.DefaultOptions()
		opts.Trials = 2
		pipelines := [][]string{{"layout", "route", "verify"}}
		for _, name := range route.Names() {
			pipelines = append(pipelines, []string{"route:" + name, "verify"})
		}
		for _, passes := range pipelines {
			m, err := Build(passes...)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := m.Compile(context.Background(), circ, dev, opts)
			if errors.Is(err, baseline.ErrBudget) && passes[0] == "route:astar" {
				continue
			}
			if err != nil {
				t.Fatalf("%v on %s: %v", passes, dev.Name(), err)
			}
			if err := routedStatesMatch(circ, pc.Result); err != nil {
				t.Fatalf("%v on %s: %v", passes, dev.Name(), err)
			}
		}
	})
}

// routedStatesMatch checks res against orig with verify.EquivalentStates
// on the physical qubits the routing touched: the wires holding the
// circuit's own qubits plus every wire a gate acts on. No gate crosses
// out of that set, so the padding qubits that start on it end on it,
// and the check is exact on a device wider than a state vector can
// hold. Outputs touching more than verify.MaxSimQubits wires are left
// to the verify pass.
func routedStatesMatch(orig *circuit.Circuit, res *core.Result) error {
	width := res.Circuit.NumQubits()
	wire := make([]int, width) // physical qubit → compact wire, -1 if untouched
	for p := range wire {
		wire[p] = -1
	}
	var phys []int // compact wire → physical qubit
	use := func(p int) {
		if wire[p] < 0 {
			wire[p] = len(phys)
			phys = append(phys, p)
		}
	}
	for q := 0; q < orig.NumQubits(); q++ {
		use(res.InitialLayout[q])
	}
	for _, g := range res.Circuit.Gates() {
		use(g.Q0)
		if g.TwoQubit() {
			use(g.Q1)
		}
	}
	k := len(phys)
	if k > verify.MaxSimQubits {
		return nil
	}
	p2l := make([]int, width)
	for q, p := range res.InitialLayout {
		p2l[p] = q
	}
	// The circuit's qubits keep their index; each padding qubit on a
	// touched wire takes the next free one.
	init, final := make([]int, k), make([]int, k)
	next := orig.NumQubits()
	for _, p := range phys {
		q, id := p2l[p], p2l[p]
		if q >= orig.NumQubits() {
			id = next
			next++
		}
		end := wire[res.FinalLayout[q]]
		if end < 0 {
			return fmt.Errorf("logical %d ends on untouched physical %d", q, res.FinalLayout[q])
		}
		init[id], final[id] = wire[p], end
	}
	routed := circuit.New(k)
	for _, g := range res.Circuit.Gates() {
		routed.Append(g.Remap(func(p int) int { return wire[p] }))
	}
	return verify.EquivalentStates(orig, routed, init, final, 2, rand.New(rand.NewSource(1)))
}
