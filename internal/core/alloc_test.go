package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/mapping"
)

// steadyStateRouter returns a router parked at its first SWAP-selection
// round of the probe workload (see ScoreRoundProbe): front layer
// populated, nothing executable, buffers warm. Used by the alloc guard
// and BenchmarkScoreRound.
func steadyStateRouter(tb testing.TB, scoring Scoring) *router {
	tb.Helper()
	return NewScoreRoundProbe(scoring).r
}

// TestScoreRoundZeroAllocs is the hot-loop allocation guard: once the
// scratch is warm, a steady-state SWAP-selection round — candidate
// collection, extended-set lookup, index + base-sum rebuild, and
// scoring every candidate — must not touch the heap at all, under
// either scoring engine. If an allocation creeps back into the
// round (a map, a fresh slice, a closure capture), this fails loudly.
func TestScoreRoundZeroAllocs(t *testing.T) {
	for _, scoring := range []Scoring{ScoringBitset, ScoringExhaustive} {
		t.Run(scoring.String(), func(t *testing.T) {
			r := steadyStateRouter(t, scoring)
			allocs := testing.AllocsPerRun(200, func() {
				_ = r.scoreRound()
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s SWAP round performs %v allocs/round, want 0", scoring, allocs)
			}
		})
	}
}

// TestApplySwapZeroAllocs guards the apply side of a round: emitting
// the winning SWAP, updating the layout, and the decay bookkeeping
// must stay off the heap once the output buffer is warm. Applying the
// same edge twice restores the layout (SWAP is an involution), so the
// round-trip measures steady state without drifting the router.
func TestApplySwapZeroAllocs(t *testing.T) {
	r := steadyStateRouter(t, ScoringBitset)
	e := r.candidate(0)
	n := len(r.s.out)
	r.applySwap(e)
	r.applySwap(e) // warm the output buffer past the append growth
	r.s.out = r.s.out[:n]
	allocs := testing.AllocsPerRun(200, func() {
		r.applySwap(e)
		r.applySwap(e)
		if r.hop(e.A, e.B) != 1 {
			t.Fatal("candidate edge is not a coupler")
		}
		r.s.out = r.s.out[:n]
	})
	if allocs != 0 {
		t.Fatalf("steady-state SWAP application performs %v allocs, want 0", allocs)
	}
}

// maxRunAllocs bounds the heap allocations of one full traversal on a
// warm Scratch: the router, the cloned layouts and the output circuit,
// never anything per gate or per round.
const maxRunAllocs = 7

// TestPassRunAllocsFlat guards the per-traversal allocation count: a
// full PassRunner.Run on a warm Scratch allocates the same handful of
// objects for a 1k-gate and a 20k-gate circuit, and no more than
// maxRunAllocs.
func TestPassRunAllocsFlat(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	n := dev.NumQubits()
	var counts []float64
	for _, gates := range []int{1000, 20000} {
		mix := rand.New(rand.NewSource(int64(gates)))
		c := circuit.New(n)
		for c.NumGates() < gates {
			a, b := mix.Intn(n), mix.Intn(n)
			switch {
			case mix.Intn(2) == 0:
				c.Append(circuit.G1(circuit.KindH, a))
			case a != b:
				c.Append(circuit.CX(a, b))
			}
		}
		pr := NewPassRunner(c, dev, DefaultOptions())
		s := NewScratch()
		init := mapping.Random(n, rand.New(rand.NewSource(1)))
		rng := rand.New(rand.NewSource(1))
		pr.Run(init, rng, s) // warm the scratch
		allocs := testing.AllocsPerRun(5, func() {
			rng.Seed(1)
			pr.Run(init, rng, s)
		})
		if allocs > maxRunAllocs {
			t.Fatalf("%d-gate traversal on a warm scratch allocates %v times, want at most %d", gates, allocs, maxRunAllocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Fatalf("traversal allocations grow with circuit size: %v at 1k gates, %v at 20k", counts[0], counts[1])
	}
}

// The bitset engine is the default: a zero-value Scoring (or
// DefaultOptions) must resolve to it.
func TestScoringModeResolution(t *testing.T) {
	if got := DefaultOptions().normalized().Scoring; got != ScoringBitset {
		t.Fatalf("default scoring = %v, want bitset", got)
	}
}

// BenchmarkScoreRound measures one SWAP-selection round in isolation
// under each engine: branch-free bitset gather (the default, base +
// O(deg) per candidate) and the exhaustive reference (O(|F|+|E|) per
// candidate). Same state, same winner.
func BenchmarkScoreRound(b *testing.B) {
	for _, scoring := range []Scoring{ScoringBitset, ScoringExhaustive} {
		b.Run(fmt.Sprint(scoring), func(b *testing.B) {
			r := steadyStateRouter(b, scoring)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = r.scoreRound()
			}
		})
	}
}
