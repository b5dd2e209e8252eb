package main

import (
	"fmt"
	"math"
)

// resultTopK is how many entries the scheduler persists per result
// (its default TopK); a shorter list means every other node scored 0.
const resultTopK = 50

// topEntry is one row of a result's top list as the API returns it.
type topEntry struct {
	Label string  `json:"label"`
	Score float64 `json:"score"`
}

// checkTopAgainst checks a top list against a reference vector whose
// values may exceed the engine's scores by between lower and upper
// (ref - score ∈ [lower, upper]); a power-iteration engine has
// lower = -delta and upper = delta, a reverse push lower ≈ 0 and
// upper = rmax. Besides each listed entry, it checks the list is
// sorted and that no unlisted node belongs above the last entry.
func checkTopAgainst(g *refGraph, top []topEntry, ref []float64, lower, upper float64) error {
	listed := make(map[int]bool, len(top))
	for i, e := range top {
		v, err := g.node(e.Label)
		if err != nil {
			return err
		}
		if listed[v] {
			return fmt.Errorf("label %q listed twice", e.Label)
		}
		listed[v] = true
		if i > 0 && e.Score > top[i-1].Score {
			return fmt.Errorf("top list not sorted at position %d", i+1)
		}
		if d := ref[v] - e.Score; d < lower || d > upper {
			return fmt.Errorf("%q scored %.12g, reference %.12g (allowed ref-score in [%g, %g])",
				e.Label, e.Score, ref[v], lower, upper)
		}
	}
	// An unlisted node scored at most the last listed score (or 0 when
	// the list is short), so its reference is at most that plus upper.
	floor := 0.0
	if len(top) >= resultTopK {
		floor = top[len(top)-1].Score
	}
	for u, r := range ref {
		if !listed[u] && r > floor+upper {
			return fmt.Errorf("unlisted %q has reference %.12g above the list floor %.12g + %g",
				g.labels[u], r, floor, upper)
		}
	}
	return nil
}

// checkCycleMembers checks that every ranked node satisfies
// d(s,u) + d(u,s) ≤ k.
func checkCycleMembers(g *refGraph, top []topEntry, source string, k int) error {
	s, err := g.node(source)
	if err != nil {
		return err
	}
	ok := cycleReach(g, s, k)
	for _, e := range top {
		u, err := g.node(e.Label)
		if err != nil {
			return err
		}
		if !ok[u] {
			return fmt.Errorf("%q ranked but lies on no cycle of length ≤ %d through %q", e.Label, k, source)
		}
		if e.Score <= 0 {
			return fmt.Errorf("%q listed with non-positive score %g", e.Label, e.Score)
		}
	}
	return nil
}

// checkTwoD checks a 2DRank top list against reference PageRank-side
// (pr) and CheiRank-side (cr) scores. A node enters the square sweep
// at step max(K, K*), and at most s nodes have step ≤ s, so the node
// at position p has step ≥ p; steps never decrease along the list;
// and the score is 1/p. Reference ranks are intervals because the
// engine's scores are known only to within delta.
func checkTwoD(g *refGraph, top []topEntry, pr, cr []float64, delta float64) error {
	kLo, kHi := rankBounds(pr, delta)
	cLo, cHi := rankBounds(cr, delta)
	prevLo := 0
	for i, e := range top {
		v, err := g.node(e.Label)
		if err != nil {
			return err
		}
		p := i + 1
		if math.Abs(e.Score-1/float64(p)) > 1e-15 {
			return fmt.Errorf("%q at position %d scored %g, want 1/%d", e.Label, p, e.Score, p)
		}
		stepLo, stepHi := max(kLo[v], cLo[v]), max(kHi[v], cHi[v])
		if stepHi < p {
			return fmt.Errorf("%q at position %d enters the sweep by step %d at the latest", e.Label, p, stepHi)
		}
		if stepHi < prevLo {
			return fmt.Errorf("%q at position %d has step ≤ %d after a node of step ≥ %d", e.Label, p, stepHi, prevLo)
		}
		prevLo = max(prevLo, stepLo)
	}
	return nil
}

// checkAgreement recomputes Jaccard and RBO (p = 0.9) of two top-10
// label lists and compares them with the served values.
func checkAgreement(a, b []string, jaccard, rbo float64) error {
	if want := jaccardRef(a, b); math.Abs(want-jaccard) > 1e-12 {
		return fmt.Errorf("jaccard %.15g, recomputed %.15g", jaccard, want)
	}
	if want := rboRef(a, b, 0.9); math.Abs(want-rbo) > 1e-12 {
		return fmt.Errorf("rbo %.15g, recomputed %.15g", rbo, want)
	}
	return nil
}

// labelsOf returns the first k labels of a top list.
func labelsOf(top []topEntry, k int) []string {
	out := make([]string, 0, k)
	for _, e := range top[:min(k, len(top))] {
		out = append(out, e.Label)
	}
	return out
}
