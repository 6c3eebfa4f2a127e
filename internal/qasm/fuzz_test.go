package qasm

import (
	"bytes"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"

	"repro/internal/circuit"
)

// scanResult is everything a scan of one input yields.
type scanResult struct {
	gates  []circuit.Gate
	qubits int
	err    string
}

// scanAll drains a scanner over r with the given starting window.
func scanAll(r io.Reader, window int) scanResult {
	sc := newGateScanner(r, window)
	var res scanResult
	for sc.Scan() {
		res.gates = append(res.gates, sc.Gate())
	}
	res.qubits = sc.NumQubits()
	if sc.Err() != nil {
		res.err = sc.Err().Error()
	}
	return res
}

// splitReader returns its data in pseudo-random pieces of 1 to 16
// bytes.
type splitReader struct {
	data []byte
	rng  *rand.Rand
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(s.data), 1+s.rng.Intn(16))
	copy(p, s.data[:n])
	s.data = s.data[n:]
	return n, nil
}

// sameGates reports whether two gate lists are equal, parameters
// compared as numbers (so -0 equals 0).
func sameGates(a, b []circuit.Gate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		g, h := a[i], b[i]
		if g.Kind != h.Kind || g.Q0 != h.Q0 || g.Q1 != h.Q1 || len(g.Params) != len(h.Params) {
			return false
		}
		for j := range g.Params {
			if g.Params[j] != h.Params[j] {
				return false
			}
		}
	}
	return true
}

// sameBits is sameGates with parameters compared bit for bit.
func sameBits(a, b []circuit.Gate) bool {
	if !sameGates(a, b) {
		return false
	}
	for i := range a {
		for j, v := range a[i].Params {
			if math.Float64bits(v) != math.Float64bits(b[i].Params[j]) {
				return false
			}
		}
	}
	return true
}

// FuzzQASM holds the front end to two oracles. First, how the input
// arrives must not matter: scanning it through a one-byte reader, or
// in random pieces through a window that starts at one byte (so every
// token straddles a refill and the window grows), yields the same
// gates, width and error text as scanning the whole buffer. Second,
// every accepted program survives the writer: Parse(Format(c)) yields
// the gates of c. The seed corpus in testdata/fuzz/FuzzQASM runs with
// every `go test`; `go test -fuzz FuzzQASM` explores beyond it.
func FuzzQASM(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		whole := scanAll(bytes.NewReader(src), len(src))
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(src))))
		for _, arm := range []struct {
			name string
			r    io.Reader
			win  int
		}{
			{"one-byte reader", iotest.OneByteReader(bytes.NewReader(src)), defaultWindow},
			{"random split", &splitReader{data: src, rng: rng}, 1},
		} {
			name, got := arm.name, scanAll(arm.r, arm.win)
			if got.err != whole.err {
				t.Fatalf("%s: error %q, whole buffer %q", name, got.err, whole.err)
			}
			if got.qubits != whole.qubits || !sameBits(got.gates, whole.gates) {
				t.Fatalf("%s: %d gates on %d qubits differ from the whole buffer's %d on %d",
					name, len(got.gates), got.qubits, len(whole.gates), whole.qubits)
			}
		}
		if whole.err != "" {
			return
		}
		c, err := Parse(string(src))
		if err != nil {
			t.Fatalf("Parse refused what the scanner accepted: %v", err)
		}
		if !sameBits(c.Gates(), whole.gates) {
			t.Fatal("Parse and the scanner disagree")
		}
		text := Format(c)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(Format(c)): %v\n%s", err, text)
		}
		if !sameGates(back.Gates(), c.Gates()) {
			t.Fatalf("Parse(Format(c)) changed the gates:\n%s", text)
		}
	})
}
