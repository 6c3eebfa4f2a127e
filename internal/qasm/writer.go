package qasm

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// Write serializes a circuit as OpenQASM 2.0. All wires are emitted as
// a single register q[n]; measurements target a matching creg c[n].
// SWAP gates are emitted with the qelib1 `swap` mnemonic (callers that
// need pure {1q, CX} output should DecomposeSwaps first).
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	writeHeader(bw, c.NumQubits(), c.CountKind(circuit.KindMeasure) > 0)
	for _, g := range c.Gates() {
		if err := writeGate(bw, g); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Format returns the QASM text of the circuit.
func Format(c *circuit.Circuit) string {
	var sb strings.Builder
	sb.Grow(64 + 16*c.NumGates())
	// strings.Builder never fails.
	_ = Write(&sb, c)
	return sb.String()
}

// writeHeader writes the version, include and register lines for a
// program of numQubits wires (at least one), with the classical
// register when creg is set.
func writeHeader(w *bufio.Writer, numQubits int, creg bool) {
	n := strconv.AppendInt(nil, int64(max(numQubits, 1)), 10)
	w.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[")
	w.Write(n)
	w.WriteString("];\n")
	if creg {
		w.WriteString("creg c[")
		w.Write(n)
		w.WriteString("];\n")
	}
}

// maxGateText bounds one encoded gate line: a mnemonic, three
// parameters of at most 24 bytes each and two 20-digit qubit indices.
const maxGateText = 256

// writeGate encodes g straight into w's free buffer space.
func writeGate(w *bufio.Writer, g circuit.Gate) error {
	if w.Available() < maxGateText {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	_, err := w.Write(appendGate(w.AvailableBuffer(), g))
	return err
}

// appendGate appends the QASM line of g to dst.
//
//sabre:hotpath
func appendGate(dst []byte, g circuit.Gate) []byte {
	switch g.Kind {
	case circuit.KindMeasure:
		dst = append(dst, "measure q["...)
		dst = strconv.AppendInt(dst, int64(g.Q0), 10)
		dst = append(dst, "] -> c["...)
		dst = strconv.AppendInt(dst, int64(g.Q0), 10)
		dst = append(dst, "];\n"...)
		return dst
	case circuit.KindBarrier:
		dst = append(dst, "barrier q["...)
		dst = strconv.AppendInt(dst, int64(g.Q0), 10)
		dst = append(dst, "];\n"...)
		return dst
	}
	dst = append(dst, g.Kind.String()...)
	if len(g.Params) > 0 {
		dst = append(dst, '(')
		for i, p := range g.Params {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendParam(dst, p)
		}
		dst = append(dst, ')')
	}
	dst = append(dst, " q["...)
	dst = strconv.AppendInt(dst, int64(g.Q0), 10)
	if g.TwoQubit() {
		dst = append(dst, "],q["...)
		dst = strconv.AppendInt(dst, int64(g.Q1), 10)
	}
	dst = append(dst, "];\n"...)
	return dst
}

// piDenominators are the denominators appendParam tries, in order.
var piDenominators = [...]float64{1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// appendParam renders an angle, using an exact multiple of pi when the
// value is one (pi/2, -pi/4, ...) and reading that form back yields
// the same float, so round-trips stay bit-exact; any other value is
// written with %.17g precision.
//
//sabre:hotpath
func appendParam(dst []byte, v float64) []byte {
	if v == 0 {
		dst = append(dst, '0')
		return dst
	}
	ratio := v / math.Pi
	for _, den := range piDenominators {
		num := ratio * den
		if num != math.Trunc(num) || math.Abs(num) > 1024 {
			continue
		}
		// The parser reads n*pi/d as (n*pi)/d.
		if num*math.Pi/den != v {
			break
		}
		n := int64(num)
		switch {
		case n == -1:
			dst = append(dst, '-')
		case n != 1:
			dst = strconv.AppendInt(dst, n, 10)
			dst = append(dst, '*')
		}
		dst = append(dst, "pi"...)
		if den != 1 {
			dst = append(dst, '/')
			dst = strconv.AppendInt(dst, int64(den), 10)
		}
		return dst
	}
	return strconv.AppendFloat(dst, v, 'g', 17, 64)
}
