package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
)

// comparePoll is the compare workload's poll cadence, far below its
// ~16 ms median query set.
const comparePoll = time.Millisecond

// compareWL is the paper's two use cases as a closed loop of one
// client: (a) the seven paper algorithms on one dataset and
// reference node, then their agreement; (b) one personalised
// algorithm on one concept across the four snapshot years or across
// several languages.
type compareWL struct {
	catalog *datasets.Catalog
	// suggested lists every catalog dataset with reference nodes.
	suggested []datasets.Dataset
	// concept maps each wiki language to its label for the concept
	// every language shares (the fake-news article).
	concept map[string]string
}

func newCompareWL(catalog *datasets.Catalog) (*compareWL, error) {
	w := &compareWL{catalog: catalog, concept: map[string]string{}}
	for _, d := range catalog.All() {
		if len(d.SuggestedSources) > 0 {
			w.suggested = append(w.suggested, d)
		}
	}
	// The shared concept is the last suggested node of each language's
	// 2018 snapshot; it must also be suggested in 2013.
	for _, lang := range datasets.WikiLanguages() {
		d18, err := catalog.Get(lang + "wiki-2018")
		if err != nil {
			return nil, err
		}
		label := d18.SuggestedSources[len(d18.SuggestedSources)-1]
		d13, err := catalog.Get(lang + "wiki-2013")
		if err != nil {
			return nil, err
		}
		found := false
		for _, s := range d13.SuggestedSources {
			found = found || s == label
		}
		if !found {
			return nil, fmt.Errorf("concept %q of %s not suggested in 2013", label, lang)
		}
		w.concept[lang] = label
	}
	return w, nil
}

// clients is one: two clients saturate the host's two CPUs, and a
// saturated platform turns the shared host's slow spells into
// latency swings twice as wide (see README.md, Steadiness).
func (w *compareWL) clients() int { return 1 }

// warmUp loads every catalog graph into the scheduler's cache, then
// runs four untimed query sets.
func (w *compareWL) warmUp(p *platform, c *client) error {
	for _, name := range p.catalog.Names() {
		if _, err := p.srv.Scheduler().LoadGraph(name); err != nil {
			return err
		}
	}
	return warmUpOps(w, c, 4)
}

// paperSet is use case (a): the seven paper algorithms on one dataset
// and reference node.
func paperSet(dataset, source string, k int) []taskSpec {
	src := algo.Params{Source: source}
	return []taskSpec{
		{Dataset: dataset, Algorithm: algo.NameCycleRank, Params: algo.Params{Source: source, K: k}},
		{Dataset: dataset, Algorithm: algo.NamePageRank},
		{Dataset: dataset, Algorithm: algo.NamePPR, Params: src},
		{Dataset: dataset, Algorithm: algo.NameCheiRank},
		{Dataset: dataset, Algorithm: algo.NamePCheiRank, Params: src},
		{Dataset: dataset, Algorithm: algo.Name2DRank},
		{Dataset: dataset, Algorithm: algo.NameP2DRank, Params: src},
	}
}

var personalised = []string{algo.NameCycleRank, algo.NamePPR, algo.NamePCheiRank, algo.NameP2DRank}

// shapes is the fixed rotation of query-set shapes: half are use case
// (a), a quarter follow one concept across the four English
// snapshots, a quarter across four languages of one year.
var shapes = []string{"paper", "years", "paper", "languages"}

// next draws query set i of a client. Shapes, datasets and
// personalised algorithms rotate from a seeded offset, so every run
// sends the same mix whatever its length; reference nodes, K,
// languages and years are drawn from rng. The key names the query
// set's slot in the rotation (shape plus dataset, or shape plus
// algorithm and source or year); query sets of one key cost about the
// same.
func (w *compareWL) next(rng *rand.Rand, i, offset int) (specs []taskSpec, class, key string) {
	class = shapes[i%len(shapes)]
	round := offset + i/len(shapes)
	k := 3 + rng.Intn(2)
	alg := personalised[round%len(personalised)]
	switch class {
	case "paper":
		d := w.suggested[(2*round+i%len(shapes)/2)%len(w.suggested)]
		return paperSet(d.Name, d.SuggestedSources[rng.Intn(len(d.SuggestedSources))], k), class, class + "/" + d.Name
	case "years":
		source := []string{"Freddie Mercury", "Pasta"}[rng.Intn(2)]
		for _, year := range datasets.WikiYears() {
			specs = append(specs, personalisedSpec(fmt.Sprintf("enwiki-%d", year), alg, source, k))
		}
		return specs, class, class + "/" + alg + "/" + source
	default:
		year := []int{2013, 2018}[rng.Intn(2)]
		langs := datasets.WikiLanguages()
		for _, j := range rng.Perm(len(langs))[:4] {
			lang := langs[j]
			specs = append(specs, personalisedSpec(fmt.Sprintf("%swiki-%d", lang, year), alg, w.concept[lang], k))
		}
		return specs, class, fmt.Sprintf("%s/%s/%d", class, alg, year)
	}
}

func personalisedSpec(dataset, alg, source string, k int) taskSpec {
	p := algo.Params{Source: source}
	if alg == algo.NameCycleRank {
		p.K = k
	}
	return taskSpec{Dataset: dataset, Algorithm: alg, Params: p}
}

// agreementJSON is the agreement endpoint's response.
type agreementJSON struct {
	K     int `json:"k"`
	Pairs []struct {
		TaskA   string  `json:"task_a"`
		TaskB   string  `json:"task_b"`
		Jaccard float64 `json:"jaccard"`
		RBO     float64 `json:"rbo"`
	} `json:"pairs"`
}

func (w *compareWL) client(c *client, rng *rand.Rand, rec *recorder) func() error {
	i, offset := 0, rng.Intn(len(w.suggested)*len(personalised))
	return func() error {
		specs, class, key := w.next(rng, i, offset)
		i++
		lat, err := w.run(c, specs, class == "paper", rec)
		rec.finish(class, key, lat, err)
		return err
	}
}

// run performs one query set. Its latency runs from the submit until
// the poll that sees every task done; the agreement request and the
// checks follow.
func (w *compareWL) run(c *client, specs []taskSpec, agreement bool, rec *recorder) (float64, error) {
	start := time.Now()
	sub, err := submit(c, specs)
	if err != nil {
		return 0, err
	}
	views, err := pollCompare(c, sub.ComparisonID, comparePoll)
	if err != nil {
		return 0, err
	}
	lat := msSince(start)
	var agr agreementJSON
	if agreement {
		if _, err := c.call(kindAgreement, http.MethodGet, "/api/compare/"+sub.ComparisonID+"/agreement",
			nil, http.StatusOK, &agr); err != nil {
			return 0, err
		}
	}
	for _, v := range views {
		rec.task(v)
	}
	if agreement {
		if err := c.stats.check(checkAgreements(views, agr)); err != nil {
			return 0, err
		}
	}
	return lat, nil
}

// checkAgreements recomputes every served agreement pair from the two
// tasks' top-10 lists.
func checkAgreements(views []doneView, agr agreementJSON) error {
	tops := map[string][]string{}
	for _, v := range views {
		tops[v.task.ID] = labelsOf(v.result.Top, 10)
	}
	if want := len(views) * (len(views) - 1) / 2; len(agr.Pairs) != want || agr.K != 10 {
		return fmt.Errorf("agreement: %d pairs at k=%d, want %d at k=10", len(agr.Pairs), agr.K, want)
	}
	for _, pr := range agr.Pairs {
		a, okA := tops[pr.TaskA]
		b, okB := tops[pr.TaskB]
		if !okA || !okB {
			return fmt.Errorf("agreement pair %s/%s names an unknown task", pr.TaskA, pr.TaskB)
		}
		if err := checkAgreement(a, b, pr.Jaccard, pr.RBO); err != nil {
			return fmt.Errorf("agreement %s/%s: %w", pr.TaskA, pr.TaskB, err)
		}
	}
	return nil
}

func (w *compareWL) graph(name string) (*refGraph, error) { return catalogGraph(w.catalog, name) }
