// Package workloads regenerates the paper's 26-benchmark evaluation
// suite (Table II) plus auxiliary circuit generators used by tests and
// examples.
//
// The original suite mixes QASM exports from IBM QISKit, RevLib,
// Quipper and ScaffCC. Those files are not redistributable here, so
// each class is rebuilt from its defining structure:
//
//   - qft_n:    exact quantum Fourier transform (all-to-all long-range
//     CNOT structure; the paper's scalability stress test).
//   - ising_model_n: Trotterized 1-D transverse-field Ising evolution
//     (nearest-neighbour-only interactions; a perfect mapping exists).
//   - small/large arithmetic: seeded Toffoli/CNOT/NOT networks with the
//     qubit count n and original gate count g_ori of Table II; small
//     benchmarks draw interactions from a Q20-embeddable sparse graph,
//     large ones from dense random triples.
package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
)

// QFT returns the n-qubit quantum Fourier transform with controlled
// phases decomposed into {u1, CX} (circuit.CU1Decomposition), the IBM
// elementary gate set. Gate count: n + 5·n(n-1)/2.
func QFT(n int) *circuit.Circuit {
	c := circuit.NewNamed(fmt.Sprintf("qft_%d", n), n)
	for i := 0; i < n; i++ {
		c.Append(circuit.G1(circuit.KindH, i))
		for j := i + 1; j < n; j++ {
			lambda := math.Pi / float64(int(1)<<uint(j-i))
			c.Append(circuit.CU1Decomposition(lambda, j, i)...)
		}
	}
	return c
}

// Ising returns a Trotterized 1-D transverse-field Ising simulation on
// n qubits with the given number of Trotter steps: an initial H layer,
// then per step a ZZ(i, i+1) interaction (CX·RZ·CX) along the chain and
// an RX layer. All two-qubit gates are nearest-neighbour on the chain,
// which is why the paper's ising benchmarks admit a trivially optimal
// mapping on any device with a Hamiltonian path (§V-A1).
func Ising(n, steps int) *circuit.Circuit {
	c := circuit.NewNamed(fmt.Sprintf("ising_model_%d", n), n)
	for q := 0; q < n; q++ {
		c.Append(circuit.G1(circuit.KindH, q))
	}
	for s := 0; s < steps; s++ {
		for q := 0; q+1 < n; q++ {
			c.Append(
				circuit.CX(q, q+1),
				circuit.G1(circuit.KindRZ, q+1, 0.3),
				circuit.CX(q, q+1),
			)
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.G1(circuit.KindRX, q, 0.7))
		}
	}
	return c
}

// isingSteps chooses the Trotter step count that brings Ising(n, steps)
// closest to the target gate count.
func isingSteps(n, targetGates int) int {
	perStep := 3*(n-1) + n
	steps := (targetGates - n + perStep/2) / perStep
	if steps < 1 {
		steps = 1
	}
	return steps
}

// GHZ returns the n-qubit GHZ-state preparation circuit: H then a CNOT
// ladder. Used by examples.
func GHZ(n int) *circuit.Circuit {
	c := circuit.NewNamed(fmt.Sprintf("ghz_%d", n), n)
	c.Append(circuit.G1(circuit.KindH, 0))
	for q := 0; q+1 < n; q++ {
		c.Append(circuit.CX(q, q+1))
	}
	return c
}

// BernsteinVazirani returns the BV circuit for the given hidden bit
// string (LSB = qubit 0), with the phase-oracle form that needs no
// ancilla: H layer, Z-oracle via CZ ... simplified to CX onto an
// ancilla qubit n for a textbook n+1 wire version.
func BernsteinVazirani(secret uint64, n int) *circuit.Circuit {
	c := circuit.NewNamed(fmt.Sprintf("bv_%d", n), n+1)
	anc := n
	c.Append(circuit.G1(circuit.KindX, anc), circuit.G1(circuit.KindH, anc))
	for q := 0; q < n; q++ {
		c.Append(circuit.G1(circuit.KindH, q))
	}
	for q := 0; q < n; q++ {
		if secret&(1<<uint(q)) != 0 {
			c.Append(circuit.CX(q, anc))
		}
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.G1(circuit.KindH, q))
	}
	return c
}

// RandomCircuit returns a seeded random circuit with the given fraction
// of CNOTs (in [0,1]); the rest are random single-qubit Cliffords+T.
// Deterministic per seed. Used widely in tests.
func RandomCircuit(name string, n, gates int, cxFrac float64, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.NewNamed(name, n)
	singles := []circuit.Kind{
		circuit.KindH, circuit.KindX, circuit.KindT,
		circuit.KindTdg, circuit.KindS, circuit.KindSdg,
	}
	for i := 0; i < gates; i++ {
		if n >= 2 && rng.Float64() < cxFrac {
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			c.Append(circuit.CX(a, b))
		} else {
			c.Append(circuit.G1(singles[rng.Intn(len(singles))], rng.Intn(n)))
		}
	}
	return c
}

// toffoliNetwork emits seeded Toffoli/CNOT/NOT blocks over the allowed
// triples/pairs until exactly `gates` elementary gates are produced
// (the tail block is truncated). pairs constrains CNOT endpoints; nil
// means any pair. This is the RevLib-arithmetic stand-in.
func toffoliNetwork(name string, n, gates int, pairs [][2]int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.NewNamed(name, n)
	var buf []circuit.Gate
	for len(buf) < gates {
		switch r := rng.Float64(); {
		case r < 0.55 && n >= 3 && pairs == nil:
			// Toffoli block on a random distinct triple.
			p := rng.Perm(n)
			buf = append(buf, circuit.ToffoliDecomposition(p[0], p[1], p[2])...)
		case r < 0.85:
			var a, b int
			if pairs != nil {
				pr := pairs[rng.Intn(len(pairs))]
				a, b = pr[0], pr[1]
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
			} else {
				a = rng.Intn(n)
				b = rng.Intn(n - 1)
				if b >= a {
					b++
				}
			}
			buf = append(buf, circuit.CX(a, b))
		default:
			kinds := []circuit.Kind{circuit.KindX, circuit.KindH, circuit.KindT, circuit.KindTdg}
			buf = append(buf, circuit.G1(kinds[rng.Intn(len(kinds))], rng.Intn(n)))
		}
	}
	c.Append(buf[:gates]...)
	return c
}

// smallArithmetic builds an n-qubit circuit with exactly `gates` gates
// whose interaction graph is drawn from a sparse, Q20-embeddable pair
// set (a path plus one chord forming a triangle). This preserves the
// property §V-A1 depends on: a perfect initial mapping exists, so a
// good mapper adds zero (or almost zero) SWAPs.
func smallArithmetic(name string, n, gates int, rng *rand.Rand) *circuit.Circuit {
	pairs := make([][2]int, 0, n)
	for i := 0; i+1 < n; i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	if n >= 3 {
		pairs = append(pairs, [2]int{0, 2}) // chord: triangle 0-1-2
	}
	return toffoliNetwork(name, n, gates, pairs, rng)
}
