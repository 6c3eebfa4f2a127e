package qasm

import (
	"bufio"
	"io"

	"repro/internal/circuit"
)

// GateScanner is the OpenQASM 2.0 front end: it lexes r in place
// through a refilled byte window and yields the flattened elementary
// gates one statement at a time, never materializing the whole file or
// a whole-circuit gate slice. Parse, ParseReader and ParseFile drain
// it, so it accepts exactly their dialect and yields exactly the gates
// they put in the circuit, in the same order.
//
// Steady-state memory is the read window (which grows only for a
// single token longer than it), one statement's gates — at most
// maxStatementGates, a bound checked before a statement is expanded —
// and the register and gate-definition tables, so a multi-gigabyte
// trace streams in bounded memory. Header statements (OPENQASM,
// include, qreg, creg, gate, opaque) yield no gates but mutate parser
// state; NumQubits grows as qreg declarations arrive and is final once
// the first gate is yielded (declarations after the first application
// are legal QASM and handled, so callers that need the final width up
// front should size to the device instead).
//
// Usage follows bufio.Scanner:
//
//	sc := qasm.NewGateScanner(r)
//	for sc.Scan() {
//		g := sc.Gate()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
type GateScanner struct {
	p *parser

	idx  int // next unread gate in p.gates
	gate circuit.Gate
	err  error
	eof  bool
}

// NewGateScanner returns a scanner reading QASM statements from r.
func NewGateScanner(r io.Reader) *GateScanner {
	return newGateScanner(r, defaultWindow)
}

// newGateScanner returns a scanner whose read window starts at window
// bytes (at least one): a caller that knows the input size passes it.
func newGateScanner(r io.Reader, window int) *GateScanner {
	return &GateScanner{p: newParser(r, window)}
}

// Scan advances to the next gate, parsing further statements as
// needed. It returns false at end of input or on the first error
// (check Err to distinguish).
func (s *GateScanner) Scan() bool {
	for s.idx >= len(s.p.gates) {
		if s.err != nil || s.eof {
			return false
		}
		s.p.gates = s.p.gates[:0]
		s.idx = 0
		more, err := s.p.statement()
		if err != nil {
			s.err = err
			return false
		}
		s.eof = !more
	}
	s.gate = s.p.gates[s.idx]
	s.idx++
	return true
}

// Gate returns the gate produced by the last successful Scan.
func (s *GateScanner) Gate() circuit.Gate { return s.gate }

// Err returns the first error encountered (nil on clean EOF).
func (s *GateScanner) Err() error { return s.err }

// NumQubits returns the total width declared by the qreg statements
// parsed so far (flattened across registers, like Parse).
func (s *GateScanner) NumQubits() int { return s.p.numWires }

// Next adapts the scanner to the pull-source shape the streaming
// router consumes (core.GateSource): it returns the next gate and
// ok=true, or ok=false at clean EOF, or the parse error.
func (s *GateScanner) Next() (circuit.Gate, bool, error) {
	if s.Scan() {
		return s.gate, true, nil
	}
	return circuit.Gate{}, false, s.err
}

// ScanGates streams the gates of QASM source r into fn, stopping on
// the first parse error or the first error fn returns. It is the
// callback flavor of GateScanner for callers that do not need the
// iterator shape.
func ScanGates(r io.Reader, fn func(circuit.Gate) error) error {
	sc := NewGateScanner(r)
	for sc.Scan() {
		if err := fn(sc.Gate()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// StreamWriter serializes routed gates as OpenQASM 2.0 incrementally:
// the header is written up front, gates are appended chunk by chunk,
// and the concatenation of all chunks is a complete program. Because
// a streaming writer cannot look ahead to count measurements, the
// classical register line is emitted unconditionally — unlike Write,
// which omits it from measurement-free circuits. Both streaming
// compilation paths (windowed and materialized) share this writer, so
// their outputs stay byte-comparable by construction.
type StreamWriter struct {
	w   *bufio.Writer
	err error
}

// NewStreamWriter writes the program header (version, include, qreg
// and creg of width max(numQubits,1)) to w and returns the writer.
func NewStreamWriter(w io.Writer, numQubits int) *StreamWriter {
	sw := &StreamWriter{w: bufio.NewWriter(w)}
	writeHeader(sw.w, numQubits, true)
	sw.err = sw.w.Flush()
	return sw
}

// WriteGates appends one chunk of gates. Errors are sticky.
func (sw *StreamWriter) WriteGates(gates []circuit.Gate) error {
	if sw.err != nil {
		return sw.err
	}
	for _, g := range gates {
		if err := writeGate(sw.w, g); err != nil {
			sw.err = err
			return err
		}
	}
	sw.err = sw.w.Flush()
	return sw.err
}

// Emit is WriteGates under the name core.StreamSink expects, so a
// StreamWriter plugs directly into the streaming router as its sink.
func (sw *StreamWriter) Emit(gates []circuit.Gate) error { return sw.WriteGates(gates) }

// Flush forces buffered output through to the underlying writer.
func (sw *StreamWriter) Flush() error {
	if sw.err != nil {
		return sw.err
	}
	sw.err = sw.w.Flush()
	return sw.err
}
