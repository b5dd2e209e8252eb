package main

import (
	"math/rand"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
)

// targetPoll is the target-warm poll cadence, well below its ~2 ms
// median.
const targetPoll = 250 * time.Microsecond

// targetWL sends single-task interactive submissions whose engine work
// is sub-millisecond because the start-up pre-warm already holds their
// artifacts: 50% bippr-pair (rmax 1e-4, 2000 fresh walks), 25%
// bippr-pair re-weighting the warm walk recording, 25% ppr-target.
type targetWL struct {
	catalog *datasets.Catalog
	// nodes lists every (dataset, suggested node) the pre-warm warms;
	// targets are drawn from it with a Zipf skew, sources from the
	// target's dataset.
	nodes []warmNode
	bySet map[string][]string
}

type warmNode struct{ dataset, label string }

func newTargetWL(catalog *datasets.Catalog) *targetWL {
	w := &targetWL{catalog: catalog, bySet: map[string][]string{}}
	for _, d := range catalog.All() {
		for _, s := range d.SuggestedSources {
			w.nodes = append(w.nodes, warmNode{d.Name, s})
		}
		if len(d.SuggestedSources) > 0 {
			w.bySet[d.Name] = d.SuggestedSources
		}
	}
	return w
}

func (w *targetWL) clients() int { return 2 }

// warmUp runs 50 untimed operations on fresh connections.
func (w *targetWL) warmUp(p *platform, c *client) error { return warmUpOps(w, c, 50) }

// client draws targets with a Zipf skew over the warm nodes in
// catalog order. The popularity order is fixed, so every seed sends
// the same mix of hot and cold keys; the seed drives the draws.
func (w *targetWL) client(c *client, rng *rand.Rand, rec *recorder) func() error {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(w.nodes)-1))
	return func() error {
		t := w.nodes[zipf.Uint64()]
		sources := w.bySet[t.dataset]
		s := sources[rng.Intn(len(sources))]
		spec := taskSpec{Dataset: t.dataset, Algorithm: algo.NameBiPPRPair}
		var class string
		switch r := rng.Float64(); {
		case r < 0.5:
			class = "pair"
			spec.Params = algo.Params{Source: s, Target: t.label, RMax: 1e-4, Walks: 2000}
		case r < 0.75:
			class = "pair-reuse"
			spec.Params = algo.Params{Source: s, Target: t.label, WalkReuse: true}
		default:
			class = "target"
			spec.Algorithm = algo.NamePPRTarget
			spec.Params = algo.Params{Target: t.label}
		}
		lat, err := w.run(c, spec, rec)
		rec.finish(class, class, lat, err)
		return err
	}
}

// run submits one task and polls it until a poll sees it done.
func (w *targetWL) run(c *client, spec taskSpec, rec *recorder) (float64, error) {
	start := time.Now()
	sub, err := submit(c, []taskSpec{spec})
	if err != nil {
		return 0, err
	}
	v, err := pollTask(c, sub.TaskIDs[0], targetPoll)
	if err != nil {
		return 0, err
	}
	lat := msSince(start)
	rec.task(v)
	return lat, nil
}

func (w *targetWL) graph(name string) (*refGraph, error) { return catalogGraph(w.catalog, name) }
