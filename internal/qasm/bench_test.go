package qasm

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// benchGates is the size of the benchmark circuit.
const benchGates = 100_000

// benchCircuit is a seeded random circuit on 20 qubits shaped like a
// routed program: half CNOTs, most single-qubit gates parameter-free,
// one in ten a rotation by a pi fraction or an arbitrary angle.
func benchCircuit() *circuit.Circuit {
	rng := rand.New(rand.NewSource(11))
	const n = 20
	singles := []circuit.Kind{circuit.KindH, circuit.KindX, circuit.KindT, circuit.KindTdg, circuit.KindS, circuit.KindSdg}
	c := circuit.New(n)
	for i := 0; i < benchGates; i++ {
		switch r := rng.Float64(); {
		case r < 0.5:
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			c.Append(circuit.CX(a, b))
		case r < 0.9:
			c.Append(circuit.G1(singles[rng.Intn(len(singles))], rng.Intn(n)))
		case r < 0.95:
			c.Append(circuit.G1(circuit.KindU1, rng.Intn(n), math.Pi/float64(int(1)<<rng.Intn(8))))
		default:
			c.Append(circuit.G1(circuit.KindRZ, rng.Intn(n), rng.NormFloat64()))
		}
	}
	return c
}

func reportPerGate(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchGates, "ns/gate")
}

func BenchmarkScan(b *testing.B) {
	src := []byte(Format(benchCircuit()))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewGateScanner(bytes.NewReader(src))
		for sc.Scan() {
		}
		if sc.Err() != nil {
			b.Fatal(sc.Err())
		}
	}
	reportPerGate(b)
}

func BenchmarkParse(b *testing.B) {
	src := Format(benchCircuit())
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
	reportPerGate(b)
}

var formatSink string

func BenchmarkFormat(b *testing.B) {
	c := benchCircuit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		formatSink = Format(c)
	}
	reportPerGate(b)
}

func BenchmarkStreamWrite(b *testing.B) {
	gates := benchCircuit().Gates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := NewStreamWriter(io.Discard, 20)
		for j := 0; j < len(gates); j += 4096 {
			if err := sw.WriteGates(gates[j:min(j+4096, len(gates))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerGate(b)
}

// scanSteadyState is a parameter-free gate stream: the scanner's
// steady state once its window, tables and statement buffer are warm.
func scanSteadyState(gates int) string {
	var sb strings.Builder
	sb.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\nqreg r[2];\n")
	for i := 0; i < gates; i++ {
		switch i % 4 {
		case 0:
			sb.WriteString("cx q[3],q[17];\n")
		case 1:
			sb.WriteString("h q[12]; // comment\n")
		case 2:
			sb.WriteString("tdg r[1];\n")
		default:
			sb.WriteString("swap q[0], r[0];\n")
		}
	}
	return sb.String()
}

// TestGateScannerZeroAllocs: once warm, scanning parameter-free gates
// allocates nothing per gate — tokens are spans of the read window and
// operands resolve without slices.
func TestGateScannerZeroAllocs(t *testing.T) {
	const perRun = 64
	sc := NewGateScanner(strings.NewReader(scanSteadyState(200 * perRun)))
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < perRun; i++ {
			if !sc.Scan() {
				t.Fatalf("scanner stopped early: %v", sc.Err())
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("GateScanner.Scan allocates %.2f times per %d gates; want 0", allocs, perRun)
	}
}

// TestStreamWriterZeroAllocs: writing a chunk of gates — parameters
// included — allocates nothing: each gate is encoded with append into
// the bufio.Writer's free space.
func TestStreamWriterZeroAllocs(t *testing.T) {
	chunk := benchCircuit().Gates()[:4096]
	sw := NewStreamWriter(io.Discard, 20)
	allocs := testing.AllocsPerRun(20, func() {
		if err := sw.WriteGates(chunk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("StreamWriter.WriteGates allocates %.2f times per chunk; want 0", allocs)
	}
}
