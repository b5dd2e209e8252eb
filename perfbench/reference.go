package main

import (
	"fmt"
	"math"
	"sort"
)

// refGraph is the benchmark's own adjacency representation: the
// independent references below run on it, never on the program's
// graph type, so a fault in the program's CSR cannot hide itself.
type refGraph struct {
	labels []string
	index  map[string]int
	out    [][]int32
	in     [][]int32
}

// newRefGraph builds a graph from labels and a directed edge list.
// Duplicate edges are kept once; self-loops are kept.
func newRefGraph(labels []string, edges [][2]int) (*refGraph, error) {
	n := len(labels)
	g := &refGraph{labels: labels, index: make(map[string]int, n),
		out: make([][]int32, n), in: make([][]int32, n)}
	for i, l := range labels {
		if _, dup := g.index[l]; dup {
			return nil, fmt.Errorf("reference graph: duplicate label %q", l)
		}
		g.index[l] = i
	}
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("reference graph: edge %v out of range [0,%d)", e, n)
		}
		if seen[e] {
			continue
		}
		seen[e] = true
		g.out[e[0]] = append(g.out[e[0]], int32(e[1]))
		g.in[e[1]] = append(g.in[e[1]], int32(e[0]))
	}
	return g, nil
}

func (g *refGraph) n() int { return len(g.labels) }

// transpose returns g with every edge reversed.
func (g *refGraph) transpose() *refGraph {
	return &refGraph{labels: g.labels, index: g.index, out: g.in, in: g.out}
}

func (g *refGraph) node(label string) (int, error) {
	v, ok := g.index[label]
	if !ok {
		return 0, fmt.Errorf("label %q not in reference graph", label)
	}
	return v, nil
}

// refTol is the L1 change at which the reference power iterations
// stop. The engines stop at 1e-10, so the reference is four orders of
// magnitude closer to the fixed point than what it checks.
const refTol = 1e-14

// refMaxIter bounds the reference power iterations; at alpha = 0.85
// the L1 change shrinks by at least 0.85 per step, so 400 steps reach
// refTol from any start.
const refMaxIter = 400

// pageRankRef is PageRank by power iteration under the convention the
// program documents for its power-iteration engine: teleport with
// probability 1-alpha to the personalization vector (uniform when
// seed < 0, the seed node otherwise), and dangling mass is
// redistributed along the same vector.
func pageRankRef(g *refGraph, alpha float64, seed int) []float64 {
	n := g.n()
	tele := make([]float64, n)
	if seed < 0 {
		for i := range tele {
			tele[i] = 1 / float64(n)
		}
	} else {
		tele[seed] = 1
	}
	cur := append([]float64(nil), tele...)
	next := make([]float64, n)
	for it := 0; it < refMaxIter; it++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if len(g.out[v]) == 0 {
				dangling += cur[v]
			}
		}
		for v := range next {
			next[v] = (1 - alpha + alpha*dangling) * tele[v]
		}
		for v := 0; v < n; v++ {
			if d := len(g.out[v]); d > 0 {
				share := alpha * cur[v] / float64(d)
				for _, w := range g.out[v] {
					next[w] += share
				}
			}
		}
		change := 0.0
		for v := range next {
			change += math.Abs(next[v] - cur[v])
		}
		cur, next = next, cur
		if change < refTol {
			break
		}
	}
	return cur
}

// absorbSteps is how many walk lengths the absorbing references sum:
// the mass left after l steps is at most alpha^l, and 0.85^200 is
// below 1e-14.
const absorbSteps = 200

// forwardAbsorbRef returns π(s,·) under the absorbing convention the
// bidirectional engine documents: a walk from s stops at each step
// with probability 1-alpha and continues along a uniform out-edge
// otherwise; a walk that tries to leave a dangling node is absorbed
// and ends nowhere. π(s,t) is the probability that the walk stops at t.
func forwardAbsorbRef(g *refGraph, alpha float64, s int) []float64 {
	n := g.n()
	pi := make([]float64, n)
	mass := make([]float64, n)
	next := make([]float64, n)
	mass[s] = 1
	weight := 1 - alpha
	for step := 0; step < absorbSteps; step++ {
		for v, m := range mass {
			pi[v] += weight * m
		}
		clear(next)
		for v, m := range mass {
			if m == 0 || len(g.out[v]) == 0 {
				continue
			}
			share := m / float64(len(g.out[v]))
			for _, w := range g.out[v] {
				next[w] += share
			}
		}
		mass, next = next, mass
		weight *= alpha
	}
	return pi
}

// backwardColumnRef returns the column π(·,t) under the absorbing
// convention as the fixed point of
//
//	x(v) = (1-alpha)·[v = t] + alpha/outdeg(v) · Σ_{w ∈ out(v)} x(w)
//
// (dangling v keeps only its first term), iterated from zero: after l
// sweeps the remainder is at most alpha^l.
func backwardColumnRef(g *refGraph, alpha float64, t int) []float64 {
	n := g.n()
	x := make([]float64, n)
	next := make([]float64, n)
	for step := 0; step < absorbSteps; step++ {
		for v := 0; v < n; v++ {
			sum := 0.0
			if d := len(g.out[v]); d > 0 {
				for _, w := range g.out[v] {
					sum += x[w]
				}
				sum *= alpha / float64(d)
			}
			if v == t {
				sum += 1 - alpha
			}
			next[v] = sum
		}
		x, next = next, x
	}
	return x
}

// bfsDist returns the hop distance from s along out-edges (or
// in-edges when reverse is set), -1 where unreachable within limit.
func bfsDist(g *refGraph, s int, limit int, reverse bool) []int {
	adj := g.out
	if reverse {
		adj = g.in
	}
	dist := make([]int, g.n())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	frontier := []int{s}
	for d := 1; d <= limit && len(frontier) > 0; d++ {
		var next []int
		for _, v := range frontier {
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = d
					next = append(next, int(w))
				}
			}
		}
		frontier = next
	}
	return dist
}

// cycleReach returns, for every node u, whether d(s,u) + d(u,s) ≤ k:
// the necessary condition for u to lie on a cycle of length ≤ k
// through s.
func cycleReach(g *refGraph, s, k int) []bool {
	fwd := bfsDist(g, s, k, false)
	bwd := bfsDist(g, s, k, true)
	ok := make([]bool, g.n())
	for u := range ok {
		ok[u] = fwd[u] >= 0 && bwd[u] >= 0 && fwd[u]+bwd[u] <= k
	}
	return ok
}

// jaccardRef is the Jaccard similarity of two label lists taken as
// sets; two empty lists agree (1).
func jaccardRef(a, b []string) float64 {
	union := map[string]int{}
	for _, x := range a {
		union[x] |= 1
	}
	for _, x := range b {
		union[x] |= 2
	}
	if len(union) == 0 {
		return 1
	}
	both := 0
	for _, m := range union {
		if m == 3 {
			both++
		}
	}
	return float64(both) / float64(len(union))
}

// rboRef is rank-biased overlap truncated at the longer list's depth
// D and normalised by its weights:
//
//	RBO = Σ_{d=1..D} p^(d-1)·|A[:d] ∩ B[:d]|/d  /  Σ_{d=1..D} p^(d-1)
//
// where a list shorter than d contributes its whole length.
func rboRef(a, b []string, p float64) float64 {
	depth := max(len(a), len(b))
	if depth == 0 {
		return 1
	}
	var sum, norm float64
	for d := 1; d <= depth; d++ {
		w := math.Pow(p, float64(d-1))
		inA := map[string]bool{}
		for _, x := range a[:min(d, len(a))] {
			inA[x] = true
		}
		overlap := 0
		seen := map[string]bool{}
		for _, x := range b[:min(d, len(b))] {
			if inA[x] && !seen[x] {
				overlap++
			}
			seen[x] = true
		}
		sum += w * float64(overlap) / float64(d)
		norm += w
	}
	return sum / norm
}

// rankBounds gives, for every node, the interval of 1-based positions
// it may take in a descending ordering of scores that are known only
// to within ±delta: lo counts the nodes certainly above it, hi the
// nodes possibly at or above it.
func rankBounds(scores []float64, delta float64) (lo, hi []int) {
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	n := len(sorted)
	lo = make([]int, n)
	hi = make([]int, n)
	for v, x := range scores {
		// Nodes certainly above v: score > x + 2·delta.
		above := n - sort.Search(n, func(i int) bool { return sorted[i] > x+2*delta })
		// Nodes possibly at or above v: score ≥ x - 2·delta.
		atOrAbove := n - sort.Search(n, func(i int) bool { return sorted[i] >= x-2*delta })
		lo[v] = above + 1
		hi[v] = atOrAbove
	}
	return lo, hi
}
