package main

import (
	"math"
	"testing"
)

const alpha = 0.85

// hand builds a reference graph over single-letter labels.
func hand(t *testing.T, labels string, edges ...string) *refGraph {
	t.Helper()
	ls := make([]string, len(labels))
	for i, r := range labels {
		ls[i] = string(r)
	}
	var es [][2]int
	idx := func(r byte) int {
		for i := range labels {
			if labels[i] == r {
				return i
			}
		}
		t.Fatalf("unknown node %c", r)
		return -1
	}
	for _, e := range edges {
		es = append(es, [2]int{idx(e[0]), idx(e[1])})
	}
	g, err := newRefGraph(ls, es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The hand-built graphs every test runs on.
func handGraphs(t *testing.T) map[string]*refGraph {
	return map[string]*refGraph{
		"chain":   hand(t, "abc", "ab", "bc"),
		"star":    hand(t, "oabcd", "oa", "ob", "oc", "od"),
		"diamond": hand(t, "abcd", "ab", "ac", "bd", "cd", "da"),
		"sink":    hand(t, "abc", "ab", "ba", "bc"),
		"2-cycle": hand(t, "ab", "ab", "ba"),
	}
}

func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.15g, want %.15g", what, got, want)
	}
}

// residual of the power-iteration fixed point
// x = (1-α+α·dangling(x))·tele + α·Pᵀx, computed edge by edge.
func pageRankResidual(g *refGraph, x []float64, seed int) float64 {
	n := g.n()
	tele := make([]float64, n)
	for v := range tele {
		if seed < 0 {
			tele[v] = 1 / float64(n)
		} else if v == seed {
			tele[v] = 1
		}
	}
	dangling := 0.0
	for v := 0; v < n; v++ {
		if len(g.out[v]) == 0 {
			dangling += x[v]
		}
	}
	worst := 0.0
	for v := 0; v < n; v++ {
		want := (1 - alpha + alpha*dangling) * tele[v]
		for _, u := range g.in[v] {
			want += alpha * x[u] / float64(len(g.out[u]))
		}
		worst = math.Max(worst, math.Abs(want-x[v]))
	}
	return worst
}

func TestPageRankRefFixedPoint(t *testing.T) {
	for name, g := range handGraphs(t) {
		for _, seed := range []int{-1, 0} {
			x := pageRankRef(g, alpha, seed)
			sum := 0.0
			for _, v := range x {
				sum += v
			}
			near(t, name+" mass", sum, 1, 1e-12)
			if r := pageRankResidual(g, x, seed); r > 1e-13 {
				t.Errorf("%s seed %d: fixed-point residual %g", name, seed, r)
			}
		}
	}
}

func TestPageRankRefClosedForms(t *testing.T) {
	g := handGraphs(t)
	x := pageRankRef(g["2-cycle"], alpha, -1)
	near(t, "2-cycle pagerank a", x[0], 0.5, 1e-13)
	// PPR from a on the 2-cycle: x_a = 1/(1+α).
	x = pageRankRef(g["2-cycle"], alpha, 0)
	near(t, "2-cycle ppr a", x[0], 1/(1+alpha), 1e-13)
	// PPR from a on the chain, dangling mass back to a:
	// x_a = (1-α)/(1-α³), x_b = α·x_a, x_c = α²·x_a.
	x = pageRankRef(g["chain"], alpha, 0)
	xa := (1 - alpha) / (1 - alpha*alpha*alpha)
	near(t, "chain ppr a", x[0], xa, 1e-13)
	near(t, "chain ppr b", x[1], alpha*xa, 1e-13)
	near(t, "chain ppr c", x[2], alpha*alpha*xa, 1e-13)
}

func TestAbsorbingRefsClosedForms(t *testing.T) {
	g := handGraphs(t)
	// Chain a→b→c: the walk stops at step l with (1-α)α^l and is
	// absorbed at the sink c.
	pi := forwardAbsorbRef(g["chain"], alpha, 0)
	near(t, "chain π(a,a)", pi[0], 1-alpha, 1e-14)
	near(t, "chain π(a,b)", pi[1], alpha*(1-alpha), 1e-14)
	near(t, "chain π(a,c)", pi[2], alpha*alpha*(1-alpha), 1e-14)
	col := backwardColumnRef(g["chain"], alpha, 2)
	near(t, "chain π(b,c)", col[1], alpha*(1-alpha), 1e-14)
	near(t, "chain π(c,c)", col[2], 1-alpha, 1e-14)
	// 2-cycle: π(a,a) = (1-α)/(1-α²).
	pi = forwardAbsorbRef(g["2-cycle"], alpha, 0)
	near(t, "2-cycle π(a,a)", pi[0], 1/(1+alpha), 1e-13)
	// Star: the centre's mass splits evenly over four sinks.
	pi = forwardAbsorbRef(g["star"], alpha, 0)
	near(t, "star π(o,a)", pi[1], alpha*(1-alpha)/4, 1e-14)
}

// The forward and backward absorbing references are computed along
// opposite edge directions; π(s,t) must agree between them.
func TestAbsorbingRefsAgree(t *testing.T) {
	for name, g := range handGraphs(t) {
		for s := 0; s < g.n(); s++ {
			fwd := forwardAbsorbRef(g, alpha, s)
			total := 0.0
			for tt := 0; tt < g.n(); tt++ {
				near(t, name+" π", fwd[tt], backwardColumnRef(g, alpha, tt)[s], 1e-13)
				total += fwd[tt]
			}
			if total > 1+1e-12 {
				t.Errorf("%s: π(%d,·) sums to %g > 1", name, s, total)
			}
		}
	}
	// On the dangling-sink graph the walk mass reaching c leaks.
	g := handGraphs(t)["sink"]
	total := 0.0
	for _, v := range forwardAbsorbRef(g, alpha, 0) {
		total += v
	}
	if total > 1-1e-3 {
		t.Errorf("sink: π(a,·) sums to %g, want absorbed mass missing", total)
	}
}

func TestCycleReach(t *testing.T) {
	g := handGraphs(t)["diamond"]
	want3 := []bool{true, true, true, true}
	want2 := []bool{true, false, false, false}
	for k, want := range map[int][]bool{3: want3, 2: want2} {
		got := cycleReach(g, 0, k)
		for v := range want {
			if got[v] != want[v] {
				t.Errorf("k=%d node %s: reach %v, want %v", k, g.labels[v], got[v], want[v])
			}
		}
	}
	if err := checkCycleMembers(g, []topEntry{{"b", 1}}, "a", 2); err == nil {
		t.Error("b accepted on a cycle of length ≤ 2 through a")
	}
	if err := checkCycleMembers(g, []topEntry{{"a", 2}, {"b", 1}}, "a", 3); err != nil {
		t.Error(err)
	}
	// The chain has no cycle at all.
	if err := checkCycleMembers(handGraphs(t)["chain"], []topEntry{{"b", 1}}, "a", 4); err == nil {
		t.Error("chain node accepted as a cycle member")
	}
}

func TestAgreementRefs(t *testing.T) {
	near(t, "jaccard equal", jaccardRef([]string{"a", "b"}, []string{"b", "a"}), 1, 0)
	near(t, "jaccard disjoint", jaccardRef([]string{"a"}, []string{"b"}), 0, 0)
	near(t, "jaccard half", jaccardRef([]string{"a", "b", "c"}, []string{"b", "c", "d"}), 0.5, 0)
	near(t, "jaccard empty", jaccardRef(nil, nil), 1, 0)
	near(t, "rbo equal", rboRef([]string{"a", "b", "c"}, []string{"a", "b", "c"}, 0.9), 1, 1e-15)
	// Swapped pair: depth 1 overlaps 0, depth 2 overlaps 2/2.
	near(t, "rbo swapped", rboRef([]string{"a", "b"}, []string{"b", "a"}, 0.9), 0.9/1.9, 1e-15)
	// Unequal lengths: the shorter list contributes all it has.
	near(t, "rbo short", rboRef([]string{"a"}, []string{"a", "b"}, 0.9), (1+0.9*0.5)/1.9, 1e-15)
	if err := checkAgreement([]string{"a", "b"}, []string{"b", "a"}, 1, 0.9/1.9); err != nil {
		t.Error(err)
	}
	if err := checkAgreement([]string{"a", "b"}, []string{"b", "a"}, 1, 0.5); err == nil {
		t.Error("wrong rbo accepted")
	}
}

func TestCheckTopAgainst(t *testing.T) {
	g := handGraphs(t)["star"]
	ref := pageRankRef(g, alpha, -1)
	var top []topEntry
	for _, v := range []int{0, 1, 2, 3, 4} {
		top = append(top, topEntry{g.labels[v], ref[v]})
	}
	// Leaves tie; the centre scores lowest (it has no in-edges).
	top = append(top[1:], top[0])
	if err := checkTopAgainst(g, top, ref, -prDelta, prDelta); err != nil {
		t.Fatal(err)
	}
	bad := append([]topEntry(nil), top...)
	bad[0].Score += 1e-6
	if err := checkTopAgainst(g, bad, ref, -prDelta, prDelta); err == nil {
		t.Error("perturbed score accepted")
	}
	// A short list claims every other node scored 0.
	if err := checkTopAgainst(g, top[:2], ref, -prDelta, prDelta); err == nil {
		t.Error("list missing positive nodes accepted")
	}
	// Reverse-push style: scores may undershoot the reference by < rmax.
	under := append([]topEntry(nil), top...)
	for i := range under {
		under[i].Score -= 5e-5
	}
	if err := checkTopAgainst(g, under, ref, -refSlack, 1e-4); err != nil {
		t.Error(err)
	}
	if err := checkTopAgainst(g, under, ref, -refSlack, 1e-5); err == nil {
		t.Error("undershoot beyond rmax accepted")
	}
}

func TestRankBoundsTies(t *testing.T) {
	lo, hi := rankBounds([]float64{0.5, 0.2, 0.2, 0.1}, 1e-9)
	wantLo := []int{1, 2, 2, 4}
	wantHi := []int{1, 3, 3, 4}
	for v := range lo {
		if lo[v] != wantLo[v] || hi[v] != wantHi[v] {
			t.Errorf("node %d: rank in [%d,%d], want [%d,%d]", v, lo[v], hi[v], wantLo[v], wantHi[v])
		}
	}
}

func TestCheckTwoD(t *testing.T) {
	// PageRank order a,b,c,d; CheiRank order d,c,a,b. Steps:
	// a=max(1,3)=3, b=max(2,4)=4, c=max(3,2)=3, d=max(4,1)=4.
	g := hand(t, "abcd", "ab")
	pr := []float64{0.4, 0.3, 0.2, 0.1}
	cr := []float64{0.2, 0.1, 0.3, 0.4}
	top := func(labels ...string) []topEntry {
		var out []topEntry
		for i, l := range labels {
			out = append(out, topEntry{l, 1 / float64(i+1)})
		}
		return out
	}
	// Step 3: vertical border (K=3: c) first, then horizontal (K*=3: a).
	if err := checkTwoD(g, top("c", "a", "d", "b"), pr, cr, prDelta); err != nil {
		t.Error(err)
	}
	if err := checkTwoD(g, top("b", "a"), pr, cr, prDelta); err == nil {
		t.Error("step-4 node accepted before a step-3 node")
	}
	wrongScore := top("c", "a")
	wrongScore[1].Score = 0.4
	if err := checkTwoD(g, wrongScore, pr, cr, prDelta); err == nil {
		t.Error("score other than 1/position accepted")
	}
}
