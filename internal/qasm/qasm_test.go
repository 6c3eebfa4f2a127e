package qasm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/circuit"
)

const tinyProgram = `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/4) q[2];
measure q[0] -> c[0];
`

func TestParseTinyProgram(t *testing.T) {
	c, err := Parse(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 3 {
		t.Fatalf("qubits = %d", c.NumQubits())
	}
	gs := c.Gates()
	if len(gs) != 4 {
		t.Fatalf("gates = %d: %v", len(gs), gs)
	}
	if gs[0].Kind != circuit.KindH || gs[0].Q0 != 0 {
		t.Fatalf("gate0 = %v", gs[0])
	}
	if gs[1].Kind != circuit.KindCX || gs[1].Q0 != 0 || gs[1].Q1 != 1 {
		t.Fatalf("gate1 = %v", gs[1])
	}
	if gs[2].Kind != circuit.KindRZ || math.Abs(gs[2].Params[0]-math.Pi/4) > 1e-15 {
		t.Fatalf("gate2 = %v", gs[2])
	}
	if gs[3].Kind != circuit.KindMeasure {
		t.Fatalf("gate3 = %v", gs[3])
	}
}

func TestParseMultipleRegisters(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg a[2];
qreg b[3];
cx a[1],b[0];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 5 {
		t.Fatalf("qubits = %d", c.NumQubits())
	}
	g := c.Gate(0)
	if g.Q0 != 1 || g.Q1 != 2 {
		t.Fatalf("flattening wrong: %v", g)
	}
}

func TestBroadcast(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg q[3];
h q;
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 3 {
		t.Fatalf("broadcast produced %d gates", c.NumGates())
	}
	// Two-register broadcast: cx q,r applies pairwise.
	c2, err := Parse(`OPENQASM 2.0;
qreg q[2];
qreg r[2];
cx q,r;
`)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != 2 || c2.Gate(0).Q1 != 2 || c2.Gate(1).Q1 != 3 {
		t.Fatalf("pairwise broadcast wrong: %v", c2.Gates())
	}
	// Mixed: single control against register of targets.
	c3, err := Parse(`OPENQASM 2.0;
qreg q[3];
cx q[0],q;
`)
	if err == nil && c3.NumGates() == 3 {
		t.Fatal("cx q[0],q must fail or skip self-pair; got 3 gates including cx q0,q0")
	}
}

func TestParamExpressions(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"rz(pi) q[0];", math.Pi},
		{"rz(-pi/2) q[0];", -math.Pi / 2},
		{"rz(2*pi/3) q[0];", 2 * math.Pi / 3},
		{"rz(1.5e-1) q[0];", 0.15},
		{"rz(3+4*2) q[0];", 11},
		{"rz((3+4)*2) q[0];", 14},
		{"rz(2^3) q[0];", 8},
		{"rz(2^3^2) q[0];", 512}, // right assoc
		{"rz(sin(pi/2)) q[0];", 1},
		{"rz(cos(0)) q[0];", 1},
		{"rz(sqrt(4)) q[0];", 2},
		{"rz(ln(exp(1))) q[0];", 1},
		{"rz(-(-2)) q[0];", 2},
		{"rz(+5) q[0];", 5},
		{"rz(10-2-3) q[0];", 5}, // left assoc
	}
	for _, tc := range cases {
		c, err := Parse("OPENQASM 2.0;\nqreg q[1];\n" + tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		got := c.Gate(0).Params[0]
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: got %g, want %g", tc.src, got, tc.want)
		}
	}
}

func TestGateDefinitionInlining(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
gate mygate(theta) a,b {
  h a;
  cx a,b;
  rz(theta/2) b;
}
mygate(pi) q[1],q[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	gs := c.Gates()
	if len(gs) != 3 {
		t.Fatalf("inline produced %d gates", len(gs))
	}
	if gs[0].Kind != circuit.KindH || gs[0].Q0 != 1 {
		t.Fatalf("gate0 = %v", gs[0])
	}
	if gs[1].Q0 != 1 || gs[1].Q1 != 0 {
		t.Fatalf("gate1 = %v", gs[1])
	}
	if math.Abs(gs[2].Params[0]-math.Pi/2) > 1e-15 {
		t.Fatalf("gate2 = %v", gs[2])
	}
}

func TestNestedGateDefinitions(t *testing.T) {
	src := `OPENQASM 2.0;
qreg q[2];
gate inner a,b { cx a,b; }
gate outer a,b { inner b,a; inner a,b; }
outer q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 2 || c.Gate(0).Q0 != 1 || c.Gate(1).Q0 != 0 {
		t.Fatalf("nested inline wrong: %v", c.Gates())
	}
}

func TestCCXDecomposition(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg q[3];
ccx q[0],q[1],q[2];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 15 {
		t.Fatalf("ccx expanded to %d gates, want 15", c.NumGates())
	}
	if c.CountKind(circuit.KindCX) != 6 {
		t.Fatalf("ccx has %d CNOTs, want 6", c.CountKind(circuit.KindCX))
	}
}

func TestCU1Decomposition(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg q[2];
cu1(pi/2) q[0],q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 5 || c.CountKind(circuit.KindCX) != 2 {
		t.Fatalf("cu1 decomposition wrong: %v", c.Gates())
	}
}

func TestBarrierAndIdIgnored(t *testing.T) {
	c, err := Parse(`OPENQASM 2.0;
qreg q[2];
id q[0];
barrier q;
u0 q[1];
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.CountKind(circuit.KindBarrier) != 2 || c.NumGates() != 2 {
		t.Fatalf("barrier/id handling wrong: %v", c.Gates())
	}
}

func TestOpaqueIgnored(t *testing.T) {
	_, err := Parse(`OPENQASM 2.0;
qreg q[1];
opaque mystery(a,b) x;
h q[0];
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"bad version", "OPENQASM 3.0;\n", "version"},
		{"bad include", "OPENQASM 2.0;\ninclude \"other.inc\";\n", "include"},
		{"unknown gate", "OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n", "unknown gate"},
		{"unknown reg", "OPENQASM 2.0;\nqreg q[1];\nh r[0];\n", "unknown quantum register"},
		{"oob index", "OPENQASM 2.0;\nqreg q[1];\nh q[5];\n", "out of range"},
		{"same qubit", "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n", "same qubit"},
		{"arity", "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n", "needs 2 qubits"},
		{"params", "OPENQASM 2.0;\nqreg q[1];\nrz q[0];\n", "needs 1 params"},
		{"missing semicolon", "OPENQASM 2.0;\nqreg q[1];\nh q[0]\n", "expected"},
		{"unterminated string", "OPENQASM 2.0;\ninclude \"qelib1.inc\n", "unterminated"},
		{"redeclared qreg", "OPENQASM 2.0;\nqreg q[1];\nqreg q[2];\n", "redeclared"},
		{"zero-size reg", "OPENQASM 2.0;\nqreg q[0];\n", "invalid register size"},
		{"if unsupported", "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n", "not supported"},
		{"reset unsupported", "OPENQASM 2.0;\nqreg q[1];\nreset q[0];\n", "not supported"},
		{"measure unknown creg", "OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> c[0];\n", "unknown classical register"},
		{"division by zero", "OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];\n", "division by zero"},
		{"stray char", "OPENQASM 2.0;\nqreg q[1];\n@ q[0];\n", "unexpected character"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestErrorPositions: errors carry the true source position, the same
// from Parse and from the scanner, also for a statement that starts
// mid-line.
func TestErrorPositions(t *testing.T) {
	cases := []struct {
		src       string
		line, col int
	}{
		{"OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n", 3, 1},
		{"OPENQASM 2.0;\nqreg q[2];\nh q[0]; foo q[1];\n", 3, 9},
		{"OPENQASM 2.0;\nqreg q[2];\ngate g a {\n  h a;\n  cx a, a;\n}\n", 5, 3},
	}
	for _, tc := range cases {
		_, perr := Parse(tc.src)
		sc := NewGateScanner(strings.NewReader(tc.src))
		for sc.Scan() {
		}
		for name, err := range map[string]error{"Parse": perr, "GateScanner": sc.Err()} {
			var qerr *Error
			if !errors.As(err, &qerr) {
				t.Fatalf("%s(%q): error %v (%T), want *Error", name, tc.src, err, err)
			}
			if qerr.Line != tc.line || qerr.Col != tc.col {
				t.Errorf("%s(%q): error at %d:%d, want %d:%d", name, tc.src, qerr.Line, qerr.Col, tc.line, tc.col)
			}
		}
	}
}

// TestRecursiveGateDefinitionRejected: a gate body may call only
// built-in and previously defined gates (OpenQASM 2.0 §3.4), so a
// definition that calls itself, or a gate defined after it, is refused
// where the call is written — before anything is expanded.
func TestRecursiveGateDefinitionRejected(t *testing.T) {
	for _, src := range []string{
		"OPENQASM 2.0;\nqreg q[1];\ngate foo a { foo a; }\nfoo q[0];\n",
		"OPENQASM 2.0;\nqreg q[1];\ngate a x { h x; b x; }\ngate b x { a x; }\nb q[0];\n",
	} {
		_, err := Parse(src)
		var qerr *Error
		if !errors.As(err, &qerr) || !strings.Contains(qerr.Msg, "unknown gate") || qerr.Line != 3 {
			t.Errorf("%q: error %v, want an unknown-gate *Error on line 3", src, err)
		}
	}
	// Redefining a gate is not recursion: the new body's call resolves
	// to the definition before it.
	c, err := Parse("OPENQASM 2.0;\nqreg q[1];\ngate foo a { h a; }\ngate foo a { foo a; x a; foo a; }\nfoo q[0];\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Gates(); len(got) != 3 || got[0].Kind != circuit.KindH || got[1].Kind != circuit.KindX || got[2].Kind != circuit.KindH {
		t.Fatalf("redefinition expanded to %v, want h, x, h", got)
	}
}

// doublingBomb is n nested gate definitions, each applying the one
// before it twice, and one application of the last to target: 2^n
// gates per target wire, described in a few hundred bytes.
func doublingBomb(n int, target string) string {
	var sb strings.Builder
	sb.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\ngate g0 a { x a; x a; }\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, "gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	fmt.Fprintf(&sb, "g%d %s;\n", n-1, target)
	return sb.String()
}

// TestExpansionBomb: the 20-level doubling bomb (about 600 bytes that
// describe 2^20 gates) is refused before anything is expanded — fast
// and in bounded memory — while an expansion at the per-statement
// bound is still accepted.
func TestExpansionBomb(t *testing.T) {
	bomb := doublingBomb(20, "q[0]")
	if len(bomb) > 800 {
		t.Fatalf("bomb is %d bytes; the fixture should stay under 800", len(bomb))
	}
	best := time.Hour
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 5; i++ {
		start := time.Now()
		_, err := Parse(bomb)
		best = min(best, time.Since(start))
		var qerr *Error
		if !errors.As(err, &qerr) || !strings.Contains(qerr.Msg, "more than") || qerr.Line != 24 {
			t.Fatalf("bomb: error %v, want an over-budget *Error on line 24", err)
		}
	}
	runtime.ReadMemStats(&after)
	if best > time.Millisecond {
		t.Errorf("bomb refused in %v at best, want under 1ms", best)
	}
	if perParse := (after.TotalAlloc - before.TotalAlloc) / 5; perParse > 64<<10 {
		t.Errorf("bomb refusal allocated %d bytes per parse, want under 64 KiB", perParse)
	}

	c, err := Parse(doublingBomb(16, "q[0]"))
	if err != nil {
		t.Fatalf("expansion at the bound refused: %v", err)
	}
	if c.NumGates() != maxStatementGates {
		t.Fatalf("16-level expansion gave %d gates, want %d", c.NumGates(), maxStatementGates)
	}
	// The bound is per statement, and broadcast counts.
	if _, err := Parse(doublingBomb(15, "q")); err == nil {
		t.Fatal("broadcast of a 2^15-gate definition over 5 qubits accepted")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	c := circuit.New(4)
	c.Append(
		circuit.G1(circuit.KindH, 0),
		circuit.CX(0, 1),
		circuit.G1(circuit.KindU3, 2, math.Pi/2, 0, math.Pi),
		circuit.Swap(2, 3),
		circuit.G1(circuit.KindRZ, 3, 0.12345),
		circuit.G1(circuit.KindMeasure, 0),
	)
	text := Format(c)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if !back.Equal(c) {
		t.Fatalf("round trip mismatch:\n%s\ngot  %v\nwant %v", text, back.Gates(), c.Gates())
	}
}

// Property: random circuits survive a QASM round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c := circuit.New(n)
		kinds := []circuit.Kind{
			circuit.KindH, circuit.KindX, circuit.KindT, circuit.KindTdg,
			circuit.KindS, circuit.KindSdg, circuit.KindRZ, circuit.KindRX,
			circuit.KindU1, circuit.KindU3,
		}
		for i := 0; i < 30; i++ {
			switch rng.Intn(3) {
			case 0:
				k := kinds[rng.Intn(len(kinds))]
				params := make([]float64, k.NumParams())
				for j := range params {
					params[j] = rng.NormFloat64()
				}
				c.Append(circuit.G1(k, rng.Intn(n), params...))
			case 1:
				a, b := rng.Intn(n), rng.Intn(n-1)
				if b >= a {
					b++
				}
				c.Append(circuit.CX(a, b))
			default:
				a, b := rng.Intn(n), rng.Intn(n-1)
				if b >= a {
					b++
				}
				c.Append(circuit.Swap(a, b))
			}
		}
		back, err := Parse(Format(c))
		return err == nil && back.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatParam(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{math.Pi, "pi"},
		{-math.Pi, "-pi"},
		{math.Pi / 2, "pi/2"},
		{-math.Pi / 4, "-pi/4"},
		{3 * math.Pi, "3*pi"},
		{3 * math.Pi / 4, "3*pi/4"},
	}
	for _, tc := range cases {
		if got := string(appendParam(nil, tc.v)); got != tc.want {
			t.Errorf("appendParam(%g) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	c, err := Parse(`// leading comment
OPENQASM 2.0; // trailing
   qreg q[2];
// full line
cx q[0],q[1];`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 {
		t.Fatal("comments broke parsing")
	}
}

func TestParseReader(t *testing.T) {
	c, err := ParseReader(strings.NewReader(tinyProgram))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 4 {
		t.Fatal("ParseReader wrong")
	}
}
