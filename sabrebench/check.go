package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// The output checks below share no code with the compiler under test:
// the coupling lists are transcribed here from the device data sheets
// (IBM Q20 Tokyo, IBM QX5 as a symmetric 2x8 ladder), and routed QASM
// is read by this file's own line reader, not by internal/qasm.
var couplings = map[string][][2]int{
	"tokyo": {
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 8}, {8, 9},
		{10, 11}, {11, 12}, {12, 13}, {13, 14}, {15, 16}, {16, 17}, {17, 18}, {18, 19},
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}, {5, 10}, {6, 11}, {7, 12}, {8, 13}, {9, 14},
		{10, 15}, {11, 16}, {12, 17}, {13, 18}, {14, 19},
		{1, 7}, {2, 6}, {3, 9}, {4, 8}, {5, 11}, {6, 10}, {7, 13}, {8, 12},
		{11, 17}, {12, 16}, {13, 19}, {14, 18},
	},
	"qx5": {
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
		{8, 9}, {9, 10}, {10, 11}, {11, 12}, {12, 13}, {13, 14}, {14, 15},
		{0, 15}, {1, 14}, {2, 13}, {3, 12}, {4, 11}, {5, 10}, {6, 9}, {7, 8},
	},
}

func deviceQubits(name string) int {
	n := 0
	for _, e := range couplings[name] {
		n = max(n, e[0]+1, e[1]+1)
	}
	return n
}

// coupled returns the device's symmetric adjacency matrix.
func coupled(name string) [][]bool {
	n := deviceQubits(name)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range couplings[name] {
		adj[e[0]][e[1]], adj[e[1]][e[0]] = true, true
	}
	return adj
}

// qgate is one gate statement as read from QASM text.
type qgate struct {
	name   string
	params string // raw text between the parentheses
	q      [2]int
	arity  int
}

// scanQASM calls fn for every gate statement of a program in the
// one-statement-per-line form the daemon writes. Header, register,
// barrier and measure lines are skipped.
func scanQASM(src []byte, fn func(g qgate) error) error {
	for line := 1; len(src) > 0; line++ {
		var l []byte
		if i := bytes.IndexByte(src, '\n'); i >= 0 {
			l, src = src[:i], src[i+1:]
		} else {
			l, src = src, nil
		}
		l = bytes.TrimSpace(l)
		if len(l) == 0 || bytes.HasPrefix(l, []byte("OPENQASM")) || bytes.HasPrefix(l, []byte("include")) ||
			bytes.HasPrefix(l, []byte("qreg")) || bytes.HasPrefix(l, []byte("creg")) ||
			bytes.HasPrefix(l, []byte("barrier")) || bytes.HasPrefix(l, []byte("measure")) {
			continue
		}
		g, err := parseGateLine(l)
		if err != nil {
			return fmt.Errorf("line %d %q: %w", line, l, err)
		}
		if err := fn(g); err != nil {
			return fmt.Errorf("line %d %q: %w", line, l, err)
		}
	}
	return nil
}

func parseGateLine(l []byte) (qgate, error) {
	var g qgate
	if !bytes.HasSuffix(l, []byte(";")) {
		return g, fmt.Errorf("no terminating ';'")
	}
	l = l[:len(l)-1]
	sp := bytes.IndexByte(l, ' ')
	if sp < 0 {
		return g, fmt.Errorf("no operands")
	}
	head, ops := l[:sp], l[sp+1:]
	if p := bytes.IndexByte(head, '('); p >= 0 {
		if head[len(head)-1] != ')' {
			return g, fmt.Errorf("unbalanced parameters")
		}
		g.params = string(head[p+1 : len(head)-1])
		head = head[:p]
	}
	g.name = string(head)
	for _, op := range bytes.Split(ops, []byte(",")) {
		if g.arity == 2 {
			return g, fmt.Errorf("more than two operands")
		}
		if !bytes.HasPrefix(op, []byte("q[")) || !bytes.HasSuffix(op, []byte("]")) {
			return g, fmt.Errorf("operand %q is not q[i]", op)
		}
		n, err := strconv.Atoi(string(op[2 : len(op)-1]))
		if err != nil {
			return g, fmt.Errorf("operand %q: %w", op, err)
		}
		g.q[g.arity] = n
		g.arity++
	}
	return g, nil
}

// countGates counts the gate statements of a program.
func countGates(src []byte) (int, error) {
	n := 0
	err := scanQASM(src, func(qgate) error { n++; return nil })
	return n, err
}

// routedStats is what the checks read off a routed program.
type routedStats struct {
	lines int // gate statements
	swaps int // swap statements
	gates int // gates with every swap counted as 3 CX (the paper's accounting)
	depth int // moments with every swap counted as 3 CX
}

// checkRouted reads a routed program on a device: every operand must
// be a physical qubit and every two-qubit gate must act on a coupled
// pair.
func checkRouted(src []byte, device string) (routedStats, error) {
	var st routedStats
	adj := coupled(device)
	n := len(adj)
	if n == 0 {
		return st, fmt.Errorf("no coupling list for device %q", device)
	}
	level := make([]int, n)
	err := scanQASM(src, func(g qgate) error {
		for i := 0; i < g.arity; i++ {
			if g.q[i] < 0 || g.q[i] >= n {
				return fmt.Errorf("qubit %d outside %s's %d qubits", g.q[i], device, n)
			}
		}
		st.lines++
		cost := 1
		switch g.arity {
		case 1:
			level[g.q[0]]++
			st.depth = max(st.depth, level[g.q[0]])
		case 2:
			a, b := g.q[0], g.q[1]
			if !adj[a][b] {
				return fmt.Errorf("%s on uncoupled pair (%d,%d) of %s", g.name, a, b, device)
			}
			if g.name == "swap" {
				st.swaps++
				cost = 3
			}
			t := max(level[a], level[b]) + cost
			level[a], level[b] = t, t
			st.depth = max(st.depth, t)
		}
		st.gates += cost
		return nil
	})
	return st, err
}

// compileResp is the part of a /compile response the checks use.
type compileResp struct {
	OriginalGates int    `json:"original_gates"`
	Swaps         int    `json:"swaps"`
	Bridges       int    `json:"bridges"`
	AddedGates    int    `json:"added_gates"`
	Gates         int    `json:"gates"`
	Depth         int    `json:"depth"`
	InitialLayout []int  `json:"initial_layout"`
	FinalLayout   []int  `json:"final_layout"`
	QASM          string `json:"qasm"`
	Passes        []struct {
		Pass  string `json:"pass"`
		Gates int    `json:"gates"`
	} `json:"passes"`
}

// checkCompile checks one routed answer against its key: coupling,
// gate accounting against the response fields, and layouts.
func checkCompile(k *key, r *compileResp) error {
	st, err := checkRouted([]byte(r.QASM), k.device)
	if err != nil {
		return err
	}
	n := deviceQubits(k.device)
	switch {
	case r.OriginalGates != k.in.gates:
		return fmt.Errorf("original_gates %d, input has %d", r.OriginalGates, k.in.gates)
	case r.AddedGates != 3*(r.Swaps+r.Bridges):
		return fmt.Errorf("added_gates %d != 3*(swaps %d + bridges %d)", r.AddedGates, r.Swaps, r.Bridges)
	case st.gates != r.Gates:
		return fmt.Errorf("routed QASM holds %d gates (swap=3), response says %d", st.gates, r.Gates)
	case st.depth != r.Depth:
		return fmt.Errorf("routed QASM has depth %d (swap=3), response says %d", st.depth, r.Depth)
	case len(r.Passes) == 0 || r.Passes[0].Pass != "route":
		return fmt.Errorf("first pass metric is not route")
	case r.Passes[0].Gates != r.OriginalGates+r.Swaps+3*r.Bridges:
		return fmt.Errorf("route pass emitted %d gates, want original %d + swaps %d + 3*bridges %d",
			r.Passes[0].Gates, r.OriginalGates, r.Swaps, r.Bridges)
	case !isPerm(r.InitialLayout, n) || !isPerm(r.FinalLayout, n):
		return fmt.Errorf("layouts are not permutations of %d qubits", n)
	}
	if k.passes == "" {
		// Routing alone only inserts swaps: everything else is the input.
		if st.swaps != r.Swaps || st.lines-st.swaps != k.in.gates {
			return fmt.Errorf("routed QASM holds %d swaps and %d other gates, want %d and %d",
				st.swaps, st.lines-st.swaps, r.Swaps, k.in.gates)
		}
	}
	return nil
}

func isPerm(p []int, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// streamTrailers is the routing summary a stream response ends with.
type streamTrailers struct {
	swaps, bridges, chunks, maxWindow int
	gatesIn, gatesOut                 int
}

// checkStream checks a routed stream: coupling, and that the output
// is the input plus the reported swaps.
func checkStream(k *key, body []byte, t streamTrailers) (routedStats, error) {
	st, err := checkRouted(body, k.device)
	if err != nil {
		return st, err
	}
	switch {
	case t.gatesIn != k.in.gates:
		return st, fmt.Errorf("X-Sabre-Gates-In %d, input has %d", t.gatesIn, k.in.gates)
	case st.lines != t.gatesOut:
		return st, fmt.Errorf("stream holds %d gates, X-Sabre-Gates-Out %d", st.lines, t.gatesOut)
	case st.swaps != t.swaps || t.bridges != 0:
		return st, fmt.Errorf("stream holds %d swaps, trailers say %d swaps %d bridges", st.swaps, t.swaps, t.bridges)
	case st.lines-st.swaps != k.in.gates:
		return st, fmt.Errorf("stream holds %d non-swap gates, input has %d", st.lines-st.swaps, k.in.gates)
	}
	return st, nil
}

// digestOwners maps each routed-QASM digest to the input whose answer
// had it. Different inputs route to different programs, so two inputs
// sharing a digest means the digest no longer covers the routed text,
// and the identity checks built on it would pass any answer.
type digestOwners map[uint32]string

func (o digestOwners) add(digest uint32, input string) error {
	if prev, ok := o[digest]; ok && prev != input {
		return fmt.Errorf("answers for %s and %s share routed-QASM digest %08x", prev, input, digest)
	}
	o[digest] = input
	return nil
}

// parseAngle reads an angle in the forms the daemon writes: 0, pi,
// -pi, n*pi, pi/d, -pi/d, n*pi/d, or a decimal.
func parseAngle(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if !strings.Contains(s, "pi") {
		return strconv.ParseFloat(s, 64)
	}
	num, den := 1.0, 1.0
	head, tail, hasDen := strings.Cut(s, "/")
	if hasDen {
		d, err := strconv.ParseFloat(tail, 64)
		if err != nil {
			return 0, err
		}
		den = d
	}
	switch {
	case head == "pi":
	case head == "-pi":
		num = -1
	case strings.HasSuffix(head, "*pi"):
		n, err := strconv.ParseFloat(strings.TrimSuffix(head, "*pi"), 64)
		if err != nil {
			return 0, err
		}
		num = n
	default:
		return 0, fmt.Errorf("bad angle %q", s)
	}
	return num * math.Pi / den, nil
}

// toCircuit rebuilds a routed program for simulation.
func toCircuit(src []byte, n int) (*circuit.Circuit, error) {
	c := circuit.New(n)
	err := scanQASM(src, func(g qgate) error {
		kind, ok := circuit.KindByName(g.name)
		if !ok || kind.Arity() != g.arity {
			return fmt.Errorf("unknown gate %s/%d", g.name, g.arity)
		}
		var params []float64
		if g.params != "" {
			for _, p := range strings.Split(g.params, ",") {
				v, err := parseAngle(p)
				if err != nil {
					return err
				}
				params = append(params, v)
			}
		}
		if len(params) != kind.NumParams() {
			return fmt.Errorf("%s takes %d parameters, got %d", g.name, kind.NumParams(), len(params))
		}
		q1 := -1
		if g.arity == 2 {
			q1 = g.q[1]
		}
		c.Append(circuit.Gate{Kind: kind, Q0: g.q[0], Q1: q1, Params: params})
		return nil
	})
	return c, err
}

// checkEquivalent simulates the original and the routed program on a
// random state: logical qubit q starts on physical initial[q] and must
// end on final[q], up to global phase.
func checkEquivalent(orig *circuit.Circuit, r *compileResp, n int, rng *rand.Rand) error {
	routed, err := toCircuit([]byte(r.QASM), n)
	if err != nil {
		return err
	}
	psi := sim.NewRandomState(n, rng)
	want := psi.Clone()
	want.ApplyCircuit(orig.Widen(n))
	// PermuteQubits(p) moves wire q to wire p[q].
	got := psi.PermuteQubits(r.InitialLayout)
	got.ApplyCircuit(routed)
	back := make([]int, n)
	for q, p := range r.FinalLayout {
		back[p] = q
	}
	got = got.PermuteQubits(back)
	if !got.EqualUpToGlobalPhase(want, 1e-9) {
		return fmt.Errorf("routed program is not equivalent (fidelity %.9f)", got.Fidelity(want))
	}
	return nil
}
