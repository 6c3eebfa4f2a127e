package core

import (
	"math"

	"repro/internal/arch"
	"repro/internal/mapping"
)

// This file implements the heuristic cost function H (Eq. 1 and Eq. 2)
// with incremental delta scoring. The paper's §IV-C1 point is that the
// candidate list is O(N); the remaining per-round cost was our own:
// re-summing the whole front layer and extended set for every
// candidate made a round O(|cand|·(|F|+|E|)). Instead, the base sums
//
//	Σ_{g∈F} D[π(q1)][π(q2)]   and   Σ_{g∈E} D[π(q1)][π(q2)]
//
// are computed once per round (buildRoundIndex), and a candidate SWAP
// on edge (A, B) rescores as base + Δ, where Δ ranges only over the
// gates touching the two swapped logical qubits — O(deg) per
// candidate, found through a per-qubit gate index built in the same
// pass as the sums.
//
// Determinism contract: with hop-count distances (the default and the
// paper's configuration) every sum is an integer, accumulated in
// int64 and converted to float64 only at the end, so base+Δ is
// bit-identical to the from-scratch sum no matter the accumulation
// order. The weighted (noise-model) sums accumulate in float64 in
// front/extended order for the base, exactly as the exhaustive scorer
// does, so bases match bit-for-bit; the delta then adds the (few)
// changed terms at the end, which re-associates the accumulation and
// can differ from the from-scratch sum by ~1 ulp, which could in
// principle flip a score that lands within ~1e-16 of the 1e-12 tie
// band. ScoringExhaustive keeps the O(|F|+|E|)-per-candidate
// reference scorer selectable for validation; the golden determinism
// suite asserts every engine routes the entire workload suite
// byte-identically, including the noise configurations.

// buildRoundIndex computes the front/extended base distance sums under
// the current layout and (re)builds the per-logical-qubit index of
// which front/extended gates touch each qubit. Each index entry stores
// the gate's *other* logical qubit (encoded partner+1 for front gates,
// -(partner+1) for extended), which is all the delta needs: the
// distance change of gate (q, partner) is a two-row matrix lookup, no
// gate fetch. Called once per SWAP round; everything it writes lives
// in the Scratch.
//
//sabre:hotpath
func (r *router) buildRoundIndex() {
	s := r.s
	r.setRoundScale()
	for _, q := range s.qTouched {
		s.qGates[q] = s.qGates[q][:0]
	}
	s.qTouched = s.qTouched[:0]

	r.frontSumI, r.extSumI = 0, 0
	r.frontSumF, r.extSumF = 0, 0
	weighted := r.wdist != nil
	for _, h := range s.front {
		q0, q1 := int(r.q2[2*h]), int(r.q2[2*h+1])
		pa, pb := r.layout.Phys(q0), r.layout.Phys(q1)
		if weighted {
			r.frontSumF += r.wdist[pa*r.n+pb]
		} else {
			r.frontSumI += int64(r.dist[pa*r.n+pb])
		}
		r.indexGate(q0, q1, false)
	}
	if r.opts.Heuristic == HeuristicBasic {
		return
	}
	for _, h := range s.extended {
		q0, q1 := int(r.q2[2*h]), int(r.q2[2*h+1])
		pa, pb := r.layout.Phys(q0), r.layout.Phys(q1)
		if weighted {
			r.extSumF += r.wdist[pa*r.n+pb]
		} else {
			r.extSumI += int64(r.dist[pa*r.n+pb])
		}
		r.indexGate(q0, q1, true)
	}
}

// indexGate records the gate under both of its logical qubits, each
// entry encoding the opposite endpoint and the front/extended flag.
//
//sabre:hotpath
func (r *router) indexGate(q0, q1 int, extended bool) {
	s := r.s
	c0, c1 := int32(q1+1), int32(q0+1)
	if extended {
		c0, c1 = -c0, -c1
	}
	if len(s.qGates[q0]) == 0 {
		s.qTouched = append(s.qTouched, q0)
	}
	s.qGates[q0] = append(s.qGates[q0], c0)
	if len(s.qGates[q1]) == 0 {
		s.qTouched = append(s.qTouched, q1)
	}
	s.qGates[q1] = append(s.qGates[q1], c1)
}

// buildRoundIndexBitset computes the same front/extended base sums as
// buildRoundIndex but builds the per-qubit index in two flat
// structures instead of per-qubit slices. Front gates are
// vertex-disjoint (two gates sharing a qubit are DAG-ordered, so at
// most one is ever in F), which collapses the front index to one slot
// per qubit: fpart[q] = the physical qubit of q's front partner, or
// -1. The extended set is not disjoint, so it gets a CSR array — one
// counting pass, a prefix-sum, then a fill pass that resolves each
// gate's *other* endpoint to its physical qubit and writes it into
// the qubit's segment. Segments are filled in extended-list order —
// the same order indexGate appends — which is what keeps the weighted
// float accumulation of the bitset scorer bit-identical to the delta
// scorer's.
//
//sabre:hotpath
func (r *router) buildRoundIndexBitset() {
	s := r.s
	n := r.n
	q2 := r.q2
	fpart, cnt, off := s.fpart, s.extCnt, s.extOff
	if r.idxGen != r.frontGen {
		// Layout-independent half, recomputed only when the front layer
		// (and with it the extended set) changed: wipe fpart — the
		// occupied slots of the previous front are unknown, so clear
		// all n — and rebuild extOff by counting + prefix-summing the
		// extended gates' qubit occurrences. While the front is stable
		// (consecutive non-executing rounds) both survive as-is; only
		// the cursors and the partner/sum fill below run per round.
		r.idxGen = r.frontGen
		for i := 0; i < n; i++ {
			fpart[i] = -1
			cnt[i] = 0
		}
		for _, gi := range s.extended {
			cnt[q2[2*gi]]++
			cnt[q2[2*gi+1]]++
		}
		total := int32(0)
		for q := 0; q < n; q++ {
			off[q] = total
			total += cnt[q]
		}
		off[n] = total
		if cap(s.extPhys) < int(total) {
			//sabre:alloc-ok amortized Scratch grow; steady-state rounds reuse the buffer
			s.extPhys = make([]int32, total)
		}
		s.extPhys = s.extPhys[:total]
	}
	// Per-round: reset the fill cursors to the segment starts, then
	// resolve every partner endpoint under the *current* layout and
	// accumulate the base sums (both change on every applied SWAP).
	copy(cnt, off[:n])
	phys := s.extPhys

	r.frontSumI, r.extSumI = 0, 0
	r.frontSumF, r.extSumF = 0, 0
	weighted := r.wdist != nil
	for _, gi := range s.front {
		q0, q1 := q2[2*gi], q2[2*gi+1]
		pa, pb := r.layout.Phys(int(q0)), r.layout.Phys(int(q1))
		if weighted {
			r.frontSumF += r.wdist[pa*n+pb]
		} else {
			r.frontSumI += int64(r.dist[pa*n+pb])
		}
		fpart[q0] = int32(pb)
		fpart[q1] = int32(pa)
	}
	for _, gi := range s.extended {
		q0, q1 := q2[2*gi], q2[2*gi+1]
		pa, pb := r.layout.Phys(int(q0)), r.layout.Phys(int(q1))
		if weighted {
			r.extSumF += r.wdist[pa*n+pb]
		} else {
			r.extSumI += int64(r.dist[pa*n+pb])
		}
		phys[cnt[q0]] = int32(pb)
		cnt[q0]++
		phys[cnt[q1]] = int32(pa)
		cnt[q1]++
	}
}

// scoreCandidatesBitset scores every candidate from the bitset round
// index and returns the winning candidate's index, dispatching once
// per round (not per candidate) on the distance-matrix type.
//
//sabre:hotpath
func (r *router) scoreCandidatesBitset() int {
	if r.wdist != nil {
		return scoreBitset(r, r.wdist, r.frontSumF, r.extSumF)
	}
	return scoreBitset(r, r.dist, int(r.frontSumI), int(r.extSumI))
}

// scoreBitset is the branch-free candidate scoring loop. For each
// candidate edge (A, B) it reads the two swapped logical qubits' front
// partners from the single-slot fpart index and their extended
// partners from the CSR segments, accumulating rowB[p]-rowA[p]
// (negated for qb's terms) over pre-resolved partner physical qubits:
// no gate fetch, no membership decode, no layout lookup inside the
// loop. The only data-dependent branch left is the pair-gate skip
// (partner == other swapped qubit), whose distance term D[A][B] →
// D[B][A] is zero by symmetry and must not be accumulated — on the
// weighted path adding-then-subtracting it would still perturb the
// float stream. The accumulation visits exactly the entries the delta
// scorer visits, in the same order per accumulator (qa's front term
// then qb's into dF; qa's extended then qb's into dE), so weighted
// scores are bit-identical to ScoringDelta's, and integer scores are
// exact.
//
// Winner selection is fused into the same pass instead of a second
// sweep over a score buffer: the reservoir tie-break below performs
// exactly the comparisons, in exactly the order, of selectBest — the
// same strict-improvement threshold, the same 1e-12 tie band, the
// same rng.Intn(ties) draw per tie — so the RNG stream, and with it
// the routed output, stays byte-identical to the oracle engines
// (asserted by the golden three-way suite). Returns the winning
// candidate's index.
//
//sabre:hotpath
func scoreBitset[D int | float64](r *router, dist []D, baseF, baseE D) int {
	s := r.s
	n := r.n
	fpart, off, phys := s.fpart, s.extOff, s.extPhys
	decay := s.decay
	ends := r.ends
	invF, invE := r.invF, r.invE
	heur := r.opts.Heuristic
	rng := r.rng
	// +Inf sentinel: the first candidate takes the strict-improvement
	// branch (score < Inf), initializing best/ties without an RNG draw —
	// exactly what selectBest's explicit first-element init does.
	best, bestScore, ties := 0, math.Inf(1), 0
	for ci, id := range s.candIDs {
		A, B := int(ends[2*id]), int(ends[2*id+1])
		rowA := dist[A*n : A*n+n]
		rowB := dist[B*n : B*n+n]
		qa, qb := r.layout.Log(A), r.layout.Log(B)

		var dF, dE D
		if pp := fpart[qa]; pp >= 0 && int(pp) != B {
			dF += rowB[pp] - rowA[pp]
		}
		if pp := fpart[qb]; pp >= 0 && int(pp) != A {
			dF += rowA[pp] - rowB[pp]
		}
		for _, pp := range phys[off[qa]:off[qa+1]] {
			if int(pp) == B {
				continue
			}
			dE += rowB[pp] - rowA[pp]
		}
		for _, pp := range phys[off[qb]:off[qb+1]] {
			if int(pp) == A {
				continue
			}
			dE += rowA[pp] - rowB[pp]
		}

		front := float64(baseF + dF)
		var score float64
		switch heur {
		case HeuristicBasic:
			score = front
		case HeuristicLookahead:
			score = front*invF + float64(baseE+dE)*invE
		default: // HeuristicDecay
			d := decay[qa]
			if decay[qb] > d {
				d = decay[qb]
			}
			score = d * (front*invF + float64(baseE+dE)*invE)
		}

		switch {
		case score < bestScore-1e-12:
			best, bestScore, ties = ci, score, 1
		case score <= bestScore+1e-12:
			ties++
			if rng.Intn(ties) == 0 {
				best = ci
			}
		}
	}
	return best
}

// scoreSwap evaluates the heuristic cost function H for one candidate
// SWAP (Algorithm 1 lines 20-23) as base + Δ under the hypothetical
// mapping π·SWAP, without mutating the layout.
//
//sabre:hotpath
func (r *router) scoreSwap(e arch.Edge) float64 {
	// Decay factor belongs to the logical qubits being swapped
	// (Eq. 2: max(decay(SWAP.q1), decay(SWAP.q2))).
	qa, qb := r.layout.Log(e.A), r.layout.Log(e.B)

	var front, ext float64
	if r.wdist != nil {
		dF, dE := r.deltasWeighted(qa, qb, e.A, e.B)
		front, ext = r.frontSumF+dF, r.extSumF+dE
	} else {
		dF, dE := r.deltasHops(qa, qb, e.A, e.B)
		front, ext = float64(r.frontSumI+dF), float64(r.extSumI+dE)
	}

	switch r.opts.Heuristic {
	case HeuristicBasic:
		return front
	case HeuristicLookahead:
		return r.combine(front, ext)
	default: // HeuristicDecay
		d := r.s.decay[qa]
		if r.s.decay[qb] > d {
			d = r.s.decay[qb]
		}
		return d * r.combine(front, ext)
	}
}

// combine is Eq. 2 without the decay factor: the size-normalized
// front-layer term plus the W-weighted extended-set term, computed as
// multiplications by the per-round reciprocals (setRoundScale). Every
// scoring engine funnels through this formula — the bitset scorer
// inlines the identical expression — so the floating-point rounding,
// and therefore the tie-break stream, is engine-independent.
//
//sabre:hotpath
func (r *router) combine(front, ext float64) float64 {
	return front*r.invF + ext*r.invE
}

// deltasHops sums, in int64 hop units, the distance change of every
// front (dF) and extended (dE) gate touching logical qubits qa or qb
// when physical qubits A = π(qa) and B = π(qb) swap.
//
// A gate (qa, p) with p ≠ qb moves from D[A][π(p)] to D[B][π(p)]; a
// gate (qb, p) with p ≠ qa moves from D[B][π(p)] to D[A][π(p)]. The
// gate (qa, qb) itself moves from D[A][B] to D[B][A] — zero by
// symmetry — so it is processed once (from qa's list) and skipped in
// qb's, which also deduplicates it without any mark bookkeeping. The
// iteration order (qa's gates, then qb's unshared gates) matches the
// order the previous mark-based dedup produced, keeping weighted
// accumulation bit-stable.
//
//sabre:hotpath
func (r *router) deltasHops(qa, qb, A, B int) (dF, dE int64) {
	f, e := deltas(r.s, r.layout, r.dist[A*r.n:A*r.n+r.n], r.dist[B*r.n:B*r.n+r.n], qa, qb)
	return int64(f), int64(e)
}

// deltasWeighted is deltasHops over the noise-weighted matrix.
//
//sabre:hotpath
func (r *router) deltasWeighted(qa, qb, A, B int) (dF, dE float64) {
	return deltas(r.s, r.layout, r.wdist[A*r.n:A*r.n+r.n], r.wdist[B*r.n:B*r.n+r.n], qa, qb)
}

// deltas is the shared delta walk over the distance rows of the two
// swapped physical qubits (rowA = D[π(qa)][·], rowB = D[π(qb)][·]),
// generic over the matrix element type so the hop-count and weighted
// paths compile to separate full-speed instantiations (int and
// float64 have distinct underlying types, so gcshape stenciling does
// not merge them). Hop deltas stay exact: they are small-integer
// differences accumulated in int (well under overflow) and widened by
// the caller.
//
//sabre:hotpath
func deltas[D int | float64](s *Scratch, layout mapping.Layout, rowA, rowB []D, qa, qb int) (dF, dE D) {
	for _, code := range s.qGates[qa] {
		p := code
		if p < 0 {
			p = -p
		}
		partner := int(p) - 1
		if partner == qb {
			continue // D[A][B] → D[B][A]: no change
		}
		pp := layout.Phys(partner)
		d := rowB[pp] - rowA[pp]
		if code > 0 {
			dF += d
		} else {
			dE += d
		}
	}
	for _, code := range s.qGates[qb] {
		p := code
		if p < 0 {
			p = -p
		}
		partner := int(p) - 1
		if partner == qa {
			continue // counted (as zero) from qa's side
		}
		pp := layout.Phys(partner)
		d := rowA[pp] - rowB[pp]
		if code > 0 {
			dF += d
		} else {
			dE += d
		}
	}
	return dF, dE
}

// scoreSwapExhaustive is the reference scorer: apply the SWAP to the
// layout, re-sum every front/extended gate from scratch, undo the
// SWAP. O(|F|+|E|) per candidate where the delta scorer is O(deg).
// Kept selectable (ScoringExhaustive) as the oracle the golden
// determinism suite compares the incremental scorers against.
//
//sabre:hotpath
func (r *router) scoreSwapExhaustive(e arch.Edge) float64 {
	qa, qb := r.layout.Log(e.A), r.layout.Log(e.B)

	r.layout.SwapPhysical(e.A, e.B)
	var score float64
	switch r.opts.Heuristic {
	case HeuristicBasic:
		score = r.frontDistanceSum()
	case HeuristicLookahead:
		score = r.lookaheadScore()
	case HeuristicDecay:
		d := r.s.decay[qa]
		if r.s.decay[qb] > d {
			d = r.s.decay[qb]
		}
		score = d * r.lookaheadScore()
	}
	r.layout.SwapPhysical(e.A, e.B)
	return score
}

// frontDistanceSum is Eq. 1: Σ_{gate∈F} D[π(q1)][π(q2)], with D the
// hop-count matrix or, under a noise model, the reliability-weighted
// matrix (§VI extension).
//
//sabre:hotpath
func (r *router) frontDistanceSum() float64 {
	sum := 0.0
	for _, h := range r.s.front {
		sum += r.distAt(r.layout.Phys(int(r.q2[2*h])), r.layout.Phys(int(r.q2[2*h+1])))
	}
	return sum
}

// lookaheadScore is Eq. 2 without the decay factor: the size-normalized
// front-layer distance sum plus the W-weighted extended-set term,
// combined with the same per-round reciprocals as every other engine.
//
//sabre:hotpath
func (r *router) lookaheadScore() float64 {
	extSum := 0.0
	for _, h := range r.s.extended {
		extSum += r.distAt(r.layout.Phys(int(r.q2[2*h])), r.layout.Phys(int(r.q2[2*h+1])))
	}
	return r.combine(r.frontDistanceSum(), extSum)
}
