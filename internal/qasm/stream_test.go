package qasm

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// drainScanner pulls every gate out of a GateScanner.
func drainScanner(t *testing.T, src string) ([]circuit.Gate, int, error) {
	t.Helper()
	sc := NewGateScanner(strings.NewReader(src))
	var gates []circuit.Gate
	for sc.Scan() {
		gates = append(gates, sc.Gate())
	}
	return gates, sc.NumQubits(), sc.Err()
}

// assertScannerMatchesParse is the scanner's core contract: for any
// source, the streamed gate sequence is element-wise identical to the
// whole-file parse.
func assertScannerMatchesParse(t *testing.T, label, src string) {
	t.Helper()
	want, werr := Parse(src)
	gates, n, serr := drainScanner(t, src)
	if werr != nil {
		if serr == nil {
			t.Fatalf("%s: Parse failed (%v) but scanner succeeded", label, werr)
		}
		return
	}
	if serr != nil {
		t.Fatalf("%s: scanner error %v; Parse succeeded", label, serr)
	}
	if n != want.NumQubits() {
		t.Fatalf("%s: scanner width %d, Parse width %d", label, n, want.NumQubits())
	}
	if len(gates) != want.NumGates() {
		t.Fatalf("%s: scanner yielded %d gates, Parse %d", label, len(gates), want.NumGates())
	}
	for i, g := range gates {
		h := want.Gate(i)
		if g.Kind != h.Kind || g.Q0 != h.Q0 || g.Q1 != h.Q1 || len(g.Params) != len(h.Params) {
			t.Fatalf("%s: gate %d differs: scanner %v, Parse %v", label, i, g, h)
		}
		for j := range g.Params {
			if g.Params[j] != h.Params[j] {
				t.Fatalf("%s: gate %d param %d differs", label, i, j)
			}
		}
	}
}

func TestGateScannerMatchesParseOnPrograms(t *testing.T) {
	for label, src := range map[string]string{
		"tiny": tinyProgram,
		"gate-defs": `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
gate foo(theta) a, b { cx a, b; rz(theta) b; cx a, b; }
gate bar a, b, c { foo(pi/2) a, b; ccx a, b, c; }
h q[0];
bar q[0], q[1], q[2];
foo(0.25) q[3], q[0];
measure q[1] -> c[1];
creg c[4];
barrier q;
`,
		"comments-and-strings": `// leading comment; with a semicolon
OPENQASM 2.0;
include "qelib1.inc"; // trailing ; comment
qreg q[2];
// cx q[0],q[1]; commented out
cx q[0], q[1];
`,
		"broadcast": `OPENQASM 2.0;
include "qelib1.inc";
qreg a[2];
qreg b[2];
h a;
cx a, b;
measure a -> c;
creg c[2];
`,
		"decompositions": `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
ccx q[0], q[1], q[2];
cu1(pi/8) q[0], q[1];
cswap q[0], q[1], q[2];
rzz(0.5) q[1], q[2];
ch q[0], q[2];
`,
	} {
		t.Run(label, func(t *testing.T) {
			assertScannerMatchesParse(t, label, src)
		})
	}
}

func TestGateScannerMatchesParseOnTestdata(t *testing.T) {
	for _, name := range []string{"adder4.qasm", "vqe_fragment.qasm"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		assertScannerMatchesParse(t, name, string(b))
	}
}

// TestGateScannerBoundedBuffer: the scanner's statement buffer tracks
// the longest statement, not the file — parsing a program thousands of
// statements long keeps p.gates to the per-statement burst.
func TestGateScannerBoundedBuffer(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n")
	const statements = 5000
	for i := 0; i < statements; i++ {
		sb.WriteString("cx q[0], q[1];\nh q[2];\n")
	}
	sc := NewGateScanner(strings.NewReader(sb.String()))
	count := 0
	for sc.Scan() {
		count++
		if got := len(sc.p.gates); got > 4 {
			t.Fatalf("parser gate buffer grew to %d entries mid-stream; statements must be drained one at a time", got)
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if count != 2*statements {
		t.Fatalf("streamed %d gates, want %d", count, 2*statements)
	}
}

func TestGateScannerErrors(t *testing.T) {
	for label, src := range map[string]string{
		"missing-semicolon": "OPENQASM 2.0;\nqreg q[2];\nh q[0]",
		"unknown-gate":      "OPENQASM 2.0;\nqreg q[2];\nwobble q[0];\n",
		"bad-index":         "OPENQASM 2.0;\nqreg q[2];\nh q[9];\n",
		"garbage":           "OPENQASM 2.0;\nqreg q[2];\n@#$;\n",
	} {
		t.Run(label, func(t *testing.T) {
			_, _, err := drainScanner(t, src)
			if err == nil {
				t.Fatalf("scanner accepted %q", src)
			}
			if _, perr := Parse(src); perr == nil {
				t.Fatalf("fixture bug: Parse accepts %q", src)
			}
		})
	}
}

// failReader errors after yielding its prefix — the scanner must
// surface transport errors, not mask them as EOF.
type failReader struct {
	prefix []byte
	err    error
}

func (f *failReader) Read(p []byte) (int, error) {
	if len(f.prefix) == 0 {
		return 0, f.err
	}
	n := copy(p, f.prefix)
	f.prefix = f.prefix[n:]
	return n, nil
}

// TestGateScannerReadError: the reader's error surfaces, also when its
// data ends mid-token ("meas" of "measure"): the transport error must
// win over the syntax error the cut token would cause.
func TestGateScannerReadError(t *testing.T) {
	boom := errors.New("connection reset")
	for _, prefix := range []string{
		"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[",
		"OPENQASM 2.0;\nqreg q[2];\nmeas",
		"OPENQASM 2.0;\nqreg q[2];\nrz(1",
		"OPENQASM 2.0;\nqreg q[2];\nmeasure q[0] -",
		"OPENQASM 2.0;\ninclude \"qelib",
	} {
		sc := NewGateScanner(&failReader{prefix: []byte(prefix), err: boom})
		for sc.Scan() {
		}
		if !errors.Is(sc.Err(), boom) {
			t.Fatalf("%q: transport error lost: %v", prefix, sc.Err())
		}
	}
}

func TestScanGatesCallback(t *testing.T) {
	var kinds []circuit.Kind
	err := ScanGates(strings.NewReader(tinyProgram), func(g circuit.Gate) error {
		kinds = append(kinds, g.Kind)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 4 {
		t.Fatalf("callback saw %d gates, want 4", len(kinds))
	}
	stop := errors.New("stop")
	n := 0
	err = ScanGates(strings.NewReader(tinyProgram), func(circuit.Gate) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 2 {
		t.Fatalf("callback error not honored: err=%v after %d gates", err, n)
	}
}

func TestGateScannerNextAdapter(t *testing.T) {
	sc := NewGateScanner(strings.NewReader(tinyProgram))
	count := 0
	for {
		_, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 4 {
		t.Fatalf("Next yielded %d gates, want 4", count)
	}
}

// TestStreamWriterChunksConcatenate: chunked emission through
// StreamWriter produces one valid program whose reparse matches the
// gates written, regardless of chunk boundaries.
func TestStreamWriterChunksConcatenate(t *testing.T) {
	gates := []circuit.Gate{
		circuit.G1(circuit.KindH, 0),
		circuit.CX(0, 1),
		circuit.Swap(1, 2),
		circuit.G1(circuit.KindRZ, 2, 0.25),
		{Kind: circuit.KindMeasure, Q0: 0, Q1: 0},
	}
	for _, chunk := range []int{1, 2, 5} {
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf, 3)
		for i := 0; i < len(gates); i += chunk {
			end := i + chunk
			if end > len(gates) {
				end = len(gates)
			}
			if err := sw.WriteGates(gates[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := Parse(buf.String())
		if err != nil {
			t.Fatalf("chunk %d: reparse: %v\n%s", chunk, err, buf.String())
		}
		// Reparse decomposes SWAPs like the round-trip tests do, so
		// compare against the same writer output re-rendered whole.
		var whole bytes.Buffer
		sw2 := NewStreamWriter(&whole, 3)
		if err := sw2.WriteGates(gates); err != nil {
			t.Fatal(err)
		}
		if buf.String() != whole.String() {
			t.Fatalf("chunk %d: chunked output differs from whole-slice output:\n%s\nvs\n%s", chunk, buf.String(), whole.String())
		}
		if got.NumQubits() != 3 {
			t.Fatalf("chunk %d: reparsed width %d", chunk, got.NumQubits())
		}
	}
}

// TestStreamWriterErrorsSticky: a failed underlying writer poisons
// subsequent calls.
type failWriter struct{ err error }

func (f *failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestStreamWriterErrorsSticky(t *testing.T) {
	boom := errors.New("pipe closed")
	sw := NewStreamWriter(&failWriter{err: boom}, 2)
	err := sw.WriteGates([]circuit.Gate{circuit.CX(0, 1)})
	if err == nil {
		// The header flush may have latched the error already; a write
		// must surface it at the latest.
		t.Fatal("write into failed pipe succeeded")
	}
	if err2 := sw.WriteGates([]circuit.Gate{circuit.CX(1, 0)}); err2 == nil {
		t.Fatal("sticky error cleared")
	}
}

var _ io.Reader = (*failReader)(nil)
