package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/formats"
)

// maxProbeUploads bounds the uploads the traced run's probe re-parses.
const maxProbeUploads = 12

// ingestPoll is the ingest workload's poll cadence, far below its
// ~300 ms cycle.
const ingestPoll = time.Millisecond

// uploadFormats rotate with the cycle number.
var uploadFormats = []formats.Format{formats.FormatEdgeList, formats.FormatPajek, formats.FormatASD}

// uploadSize is cycle's node count: a low-discrepancy (golden-ratio)
// sequence over 5k–20k in steps of 100, so any run's uploads cover
// the range evenly and its latency distribution has no gaps between
// size classes for a percentile to fall into.
func uploadSize(cycle int) int {
	frac := math.Mod(float64(cycle)*0.6180339887498949, 1)
	return 5000 + 100*int(frac*151)
}

// uploadInput identifies one generated upload; the graph is a pure
// function of it, so the checks regenerate it instead of keeping it.
type uploadInput struct {
	seed   int64
	cycle  int
	n      int
	format formats.Format
}

func (u uploadInput) name() string { return fmt.Sprintf("upload-%d-%d", u.seed, u.cycle) }

// edges generates a directed preferential-attachment graph: each new
// node links to four distinct earlier nodes drawn by degree, a quarter
// of those links are reciprocated, and one node in twenty is a sink
// that only receives a link. Every node has at least one edge, there
// are no self-loops and no duplicates.
func (u uploadInput) edges() [][2]int {
	rng := rand.New(rand.NewSource(u.seed*1_000_003 + int64(u.cycle)))
	const core, links = 5, 4
	sink := make([]bool, u.n)
	var edges [][2]int
	var ends []int // every edge endpoint, for degree-proportional draws
	add := func(a, b int) {
		edges = append(edges, [2]int{a, b})
		ends = append(ends, a, b)
	}
	for v := 0; v < core; v++ {
		add(v, (v+1)%core)
	}
	for v := core; v < u.n; v++ {
		if rng.Intn(20) == 0 {
			sink[v] = true
			from := ends[rng.Intn(len(ends))]
			for sink[from] {
				from = ends[rng.Intn(len(ends))]
			}
			add(from, v)
			continue
		}
		chosen := map[int]bool{}
		for len(chosen) < links {
			t := ends[rng.Intn(len(ends))]
			if t == v || chosen[t] {
				continue
			}
			chosen[t] = true
			add(v, t)
			if !sink[t] && rng.Intn(4) == 0 {
				add(t, v)
			}
		}
	}
	return edges
}

// uploadFor recovers the upload behind a dataset name.
func uploadFor(name string) (uploadInput, error) {
	var u uploadInput
	if _, err := fmt.Sscanf(name, "upload-%d-%d", &u.seed, &u.cycle); err != nil || u.cycle < 0 {
		return u, fmt.Errorf("unknown upload %q", name)
	}
	u.n = uploadSize(u.cycle)
	u.format = uploadFormats[u.cycle%len(uploadFormats)]
	return u, nil
}

// text renders the upload in its format, with its edge count. Labels
// are the decimal node ids 0..n-1 in every format.
func (u uploadInput) text() ([]byte, int) {
	edges := u.edges()
	var b bytes.Buffer
	b.Grow(len(edges) * 14)
	switch u.format {
	case formats.FormatEdgeList:
		b.WriteString("source,target\n")
		for _, e := range edges {
			fmt.Fprintf(&b, "%d,%d\n", e[0], e[1])
		}
	case formats.FormatPajek:
		fmt.Fprintf(&b, "*Vertices %d\n", u.n)
		for v := 0; v < u.n; v++ {
			fmt.Fprintf(&b, "%d \"%d\"\n", v+1, v)
		}
		b.WriteString("*Arcs\n")
		for _, e := range edges {
			fmt.Fprintf(&b, "%d %d\n", e[0]+1, e[1]+1)
		}
	case formats.FormatASD:
		fmt.Fprintf(&b, "%d %d\n", u.n, len(edges))
		for _, e := range edges {
			fmt.Fprintf(&b, "%d %d\n", e[0], e[1])
		}
	}
	return b.Bytes(), len(edges)
}

func (u uploadInput) refGraph() (*refGraph, error) {
	labels := make([]string, u.n)
	for v := range labels {
		labels[v] = strconv.Itoa(v)
	}
	return newRefGraph(labels, u.edges())
}

// ingestWL is one client cycling upload → cold query set → delete on
// freshly generated graphs, so nothing it queries is ever warm.
type ingestWL struct{}

func (w ingestWL) clients() int { return 1 }

// warmUp runs one untimed cycle.
func (w ingestWL) warmUp(p *platform, c *client) error { return warmUpOps(w, c, 1) }

func (w ingestWL) client(c *client, rng *rand.Rand, rec *recorder) func() error {
	cycle := 0
	seed := rng.Int63()
	return func() error {
		in, err := uploadFor(fmt.Sprintf("upload-%d-%d", seed, cycle))
		if err != nil {
			return err
		}
		cycle++
		text, edges := in.text()
		q := pickQueries(rng, in.n)
		lat, err := w.run(c, in, text, edges, q, rec)
		rec.finish(string(in.format), "cycle", lat, err)
		return err
	}
}

// ingestQueries are one cycle's query nodes.
type ingestQueries struct {
	source, target, pairTarget string
	batch                      []string
}

// pickQueries draws the source among the oldest nodes (the
// best-connected, so cycles through it exist) and targets among the
// first thousand.
func pickQueries(rng *rand.Rand, n int) ingestQueries {
	node := func(limit int) string { return strconv.Itoa(rng.Intn(min(limit, n))) }
	q := ingestQueries{source: node(100), target: node(1000), pairTarget: node(1000)}
	for i := 0; i < 4; i++ {
		q.batch = append(q.batch, node(1000))
	}
	return q
}

// querySet is the cold query set of one cycle.
func (q ingestQueries) specs(dataset string) []taskSpec {
	batch := taskSpec{Dataset: dataset, Algorithm: algo.NameBiPPRPair}
	for _, t := range q.batch {
		batch.Queries = append(batch.Queries, subSpecJSON{Params: algo.Params{Source: q.source, Target: t, WalkReuse: true}})
	}
	return []taskSpec{
		{Dataset: dataset, Algorithm: algo.NamePPRTarget, Params: algo.Params{Target: q.target, RMax: 1e-6}},
		{Dataset: dataset, Algorithm: algo.NameBiPPRPair, Params: algo.Params{Source: q.source, Target: q.pairTarget, RMax: 1e-5, Walks: 20000}},
		batch,
		{Dataset: dataset, Algorithm: algo.NameCycleRank, Params: algo.Params{Source: q.source, K: 3}},
		{Dataset: dataset, Algorithm: algo.NamePageRank},
	}
}

// datasetStatsJSON is the upload response.
type datasetStatsJSON struct {
	Stats struct {
		Nodes int   `json:"nodes"`
		Edges int64 `json:"edges"`
	} `json:"stats"`
}

// run performs one cycle; its latency runs from the start of the
// upload until the delete returns.
func (w ingestWL) run(c *client, in uploadInput, text []byte, edges int, q ingestQueries, rec *recorder) (float64, error) {
	name := in.name()
	rec.mu.Lock()
	if len(rec.uploads) < maxProbeUploads {
		rec.uploads = append(rec.uploads, in)
	}
	rec.mu.Unlock()

	start := time.Now()
	var st datasetStatsJSON
	if _, err := c.call(kindUpload, http.MethodPost, "/api/datasets/"+name+"?format="+string(in.format),
		text, http.StatusCreated, &st); err != nil {
		return 0, err
	}
	sub, err := submit(c, q.specs(name))
	if err != nil {
		return 0, err
	}
	views, err := pollCompare(c, sub.ComparisonID, ingestPoll)
	if err != nil {
		return 0, err
	}
	if _, err := c.call(kindDelete, http.MethodDelete, "/api/datasets/"+name, nil, http.StatusNoContent, nil); err != nil {
		return 0, err
	}
	lat := msSince(start)

	for _, v := range views {
		rec.task(v)
	}
	if err := c.stats.check(func() error {
		if st.Stats.Nodes != in.n || st.Stats.Edges != int64(edges) {
			return fmt.Errorf("upload %s: stats %d nodes %d edges, generated %d and %d",
				name, st.Stats.Nodes, st.Stats.Edges, in.n, edges)
		}
		return nil
	}()); err != nil {
		return 0, err
	}
	_, err = c.roundTrip(http.MethodGet, "/api/datasets/"+name, nil, http.StatusNotFound)
	if err := c.stats.check(err); err != nil {
		return 0, fmt.Errorf("deleted dataset: %w", err)
	}
	return lat, nil
}

func (w ingestWL) graph(name string) (*refGraph, error) {
	in, err := uploadFor(name)
	if err != nil {
		return nil, err
	}
	return in.refGraph()
}
