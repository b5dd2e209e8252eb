package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/graph"
)

// workload is one traffic mix. Each client goroutine calls its
// operation function in a closed loop until the window ends; verify
// then checks everything the window recorded against the independent
// references.
type workload interface {
	clients() int
	// warmUp runs the workload's own untimed set-up on a booted
	// platform (it counts towards setup_s).
	warmUp(p *platform, c *client) error
	// client returns one client's operation: each call performs one
	// operation drawn from rng, recording its latency and what its
	// answers must satisfy.
	client(c *client, rng *rand.Rand, rec *recorder) func() error
	// graph returns the reference graph behind a recorded dataset.
	graph(dataset string) (*refGraph, error)
}

// catalogGraph generates a catalog dataset and copies it into the
// benchmark's own representation.
func catalogGraph(catalog *datasets.Catalog, name string) (*refGraph, error) {
	d, err := catalog.Get(name)
	if err != nil {
		return nil, err
	}
	g, err := d.Load()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	labels := make([]string, n)
	var edges [][2]int
	for v := 0; v < n; v++ {
		labels[v] = g.Label(graph.NodeID(v))
		for _, w := range g.Out(graph.NodeID(v)) {
			edges = append(edges, [2]int{v, int(w)})
		}
	}
	return newRefGraph(labels, edges)
}

// warmUpOps runs n untimed operations of wl, failing on the first
// error.
func warmUpOps(wl workload, c *client, n int) error {
	op := wl.client(c, rand.New(rand.NewSource(-1)), newRecorder())
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// --- API shapes, decoded by the benchmark's own types ---

type taskJSON struct {
	ID        string      `json:"id"`
	Dataset   string      `json:"dataset"`
	Algorithm string      `json:"algorithm"`
	Params    algo.Params `json:"params"`
	State     string      `json:"state"`
	Error     string      `json:"error"`
	Submitted time.Time   `json:"submitted"`
	Started   time.Time   `json:"started"`
	Finished  time.Time   `json:"finished"`
}

type subResultJSON struct {
	Algorithm string      `json:"algorithm"`
	Params    algo.Params `json:"params"`
	State     string      `json:"state"`
	Error     string      `json:"error"`
	Top       []topEntry  `json:"top"`
}

type resultJSON struct {
	Top     []topEntry      `json:"top"`
	Queries []subResultJSON `json:"queries"`
}

type taskViewJSON struct {
	Task   taskJSON        `json:"task"`
	Result json.RawMessage `json:"result"`
}

type compareJSON struct {
	Tasks []taskViewJSON `json:"tasks"`
	Done  bool           `json:"done"`
}

type submitJSON struct {
	ComparisonID string   `json:"comparison_id"`
	TaskIDs      []string `json:"task_ids"`
}

// taskSpec is one entry of a submission's tasks array.
type taskSpec struct {
	Dataset   string        `json:"dataset"`
	Algorithm string        `json:"algorithm"`
	Params    algo.Params   `json:"params"`
	Queries   []subSpecJSON `json:"queries,omitempty"`
}

type subSpecJSON struct {
	Params algo.Params `json:"params"`
}

// submit posts a query set and returns its ids.
func submit(c *client, specs []taskSpec) (submitJSON, error) {
	body, err := json.Marshal(map[string]any{"tasks": specs})
	if err != nil {
		return submitJSON{}, err
	}
	var out submitJSON
	_, err = c.call(kindSubmit, http.MethodPost, "/api/tasks", body, http.StatusAccepted, &out)
	if err == nil && len(out.TaskIDs) != len(specs) {
		err = fmt.Errorf("submitted %d tasks, got %d ids", len(specs), len(out.TaskIDs))
	}
	return out, err
}

// doneView is one task as first seen done by a poll.
type doneView struct {
	task   taskJSON
	result resultJSON
	raw    json.RawMessage
	seen   time.Time
}

// pollCompare polls a query set every interval until every task is
// terminal, returning each task as the first poll that saw it done.
// A task ending in any other state is an error.
func pollCompare(c *client, id string, every time.Duration) ([]doneView, error) {
	var views []doneView
	for {
		var cmp compareJSON
		if _, err := c.call(kindPoll, http.MethodGet, "/api/compare/"+id, nil, http.StatusOK, &cmp); err != nil {
			return nil, err
		}
		now := time.Now()
		if views == nil {
			views = make([]doneView, len(cmp.Tasks))
		}
		if len(cmp.Tasks) != len(views) {
			return nil, fmt.Errorf("query set %s changed size", id)
		}
		for i, tv := range cmp.Tasks {
			if err := absorb(&views[i], tv, now); err != nil {
				return nil, err
			}
		}
		if cmp.Done {
			for i := range views {
				if views[i].seen.IsZero() {
					return nil, fmt.Errorf("query set %s done but task %d not seen done", id, i)
				}
			}
			return views, nil
		}
		time.Sleep(every)
	}
}

// pollTask is pollCompare for a single task through /api/tasks/{id}.
func pollTask(c *client, id string, every time.Duration) (doneView, error) {
	var v doneView
	for {
		var tv taskViewJSON
		if _, err := c.call(kindPoll, http.MethodGet, "/api/tasks/"+id, nil, http.StatusOK, &tv); err != nil {
			return v, err
		}
		if err := absorb(&v, tv, time.Now()); err != nil {
			return v, err
		}
		if !v.seen.IsZero() {
			return v, nil
		}
		time.Sleep(every)
	}
}

// absorb folds one polled task view into v: the first view that shows
// the task done, with its result, is kept.
func absorb(v *doneView, tv taskViewJSON, now time.Time) error {
	if !v.seen.IsZero() {
		return nil
	}
	switch tv.Task.State {
	case "pending", "running":
		return nil
	case "done":
	default:
		return fmt.Errorf("task %s (%s) ended %s: %s", tv.Task.ID, tv.Task.Algorithm, tv.Task.State, tv.Task.Error)
	}
	if len(tv.Result) == 0 {
		return fmt.Errorf("task %s done without a readable result", tv.Task.ID)
	}
	var res resultJSON
	if err := json.Unmarshal(tv.Result, &res); err != nil {
		return fmt.Errorf("task %s: decoding result: %w", tv.Task.ID, err)
	}
	*v = doneView{task: tv.Task, result: res, raw: tv.Result, seen: now}
	return nil
}

// checkItem is one distinct answer to one query: the deferred checks
// run once per distinct (dataset, algorithm, params, answer).
type checkItem struct {
	dataset   string
	algorithm string
	params    algo.Params
	top       []topEntry
	ops       int // operations that received this answer
}

// maxProbeResults bounds the result documents kept for the traced
// run's datastore probe.
const maxProbeResults = 64

// recorder collects what the measured window produced.
type recorder struct {
	mu           sync.Mutex
	latMS        []float64
	doneAt       []time.Time // completion time of each latMS sample
	byClass      map[string][]float64
	keys         []string // rotation key of each latMS sample
	ops, failed  int
	queueMS      []float64
	runMS        []float64
	lagMS        []float64
	bipprQueries int
	items        map[uint64]*checkItem
	probes       [][]byte
	uploads      []uploadInput
	errs         []string
}

func newRecorder() *recorder {
	return &recorder{items: map[uint64]*checkItem{}, byClass: map[string][]float64{}}
}

// finish records one operation's outcome. The class names the
// operation's shape for the per-class latency lines of the report; the
// key names its slot in the workload's rotation, for mixLatency.
func (r *recorder) finish(class, key string, latMS float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	r.latMS = append(r.latMS, latMS)
	r.doneAt = append(r.doneAt, time.Now())
	r.byClass[class] = append(r.byClass[class], latMS)
	r.keys = append(r.keys, key)
}

// mixLatency is the median latency of each key, averaged over the
// samples: Σ n_k·median_k / Σ n_k. One median over a mix of slots
// whose costs differ falls between their modes and jumps with a
// handful of samples; the per-key medians move only when a slot's
// cost does.
func mixLatency(latMS []float64, keys []string) float64 {
	byKey := map[string][]float64{}
	for i, k := range keys {
		byKey[k] = append(byKey[k], latMS[i])
	}
	var total, n float64
	for _, xs := range byKey {
		total += float64(len(xs)) * median(xs)
		n += float64(len(xs))
	}
	return ratio(total, n)
}

// task records a done task's timestamps and queues its answer (and
// each batch subquery's) for the deferred checks.
func (r *recorder) task(v doneView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := v.task
	r.queueMS = append(r.queueMS, msBetween(t.Submitted, t.Started))
	r.runMS = append(r.runMS, msBetween(t.Started, t.Finished))
	r.lagMS = append(r.lagMS, msBetween(t.Finished, v.seen))
	if len(r.probes) < maxProbeResults {
		r.probes = append(r.probes, v.raw)
	}
	if len(v.result.Queries) == 0 {
		r.addItemLocked(t.Dataset, t.Algorithm, t.Params, v.result.Top)
		return
	}
	for _, q := range v.result.Queries {
		r.addItemLocked(t.Dataset, q.Algorithm, q.Params, q.Top)
	}
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

func (r *recorder) addItemLocked(dataset, algorithm string, p algo.Params, top []topEntry) {
	if algorithm == algo.NamePPRTarget || algorithm == algo.NameBiPPRPair {
		r.bipprQueries++
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%+v\x00", dataset, algorithm, p)
	var buf [8]byte
	for _, e := range top {
		h.Write([]byte(e.Label))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Score))
		h.Write(buf[:])
	}
	key := h.Sum64()
	if it, ok := r.items[key]; ok {
		it.ops++
		return
	}
	r.items[key] = &checkItem{dataset: dataset, algorithm: algorithm, params: p, top: top, ops: 1}
}

// verify runs the deferred checks, one per distinct answer, with
// references memoised per graph; two workers share the graphs. It
// returns how many operations received an answer that failed.
func verify(wl workload, rec *recorder, stats *callStats) int {
	byGraph := map[string][]*checkItem{}
	for _, it := range rec.items {
		byGraph[it.dataset] = append(byGraph[it.dataset], it)
	}
	names := make(chan string, len(byGraph))
	for name := range byGraph {
		names <- name
	}
	close(names)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		failedOps int
	)
	fail := func(it *checkItem, err error) {
		stats.check(err)
		mu.Lock()
		defer mu.Unlock()
		failedOps += it.ops
		if len(rec.errs) < 5 {
			rec.errs = append(rec.errs, fmt.Sprintf("%s %s %s: %v", it.dataset, it.algorithm, it.params, err))
		}
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range names {
				g, err := wl.graph(name)
				var refs *refCache
				if err == nil {
					refs = newRefCache(g)
				}
				for _, it := range byGraph[name] {
					if err != nil {
						fail(it, err)
					} else if cerr := refs.check(it); cerr != nil {
						fail(it, cerr)
					} else {
						stats.check(nil)
					}
				}
			}
		}()
	}
	wg.Wait()
	return failedOps
}

// Tolerances of the deferred checks. prDelta bounds a power-iteration
// engine's per-node error: it stops once the L1 change falls below
// 1e-10, which leaves at most 1e-10·alpha/(1-alpha) ≈ 5.7e-10 of L1
// error at alpha = 0.85. refSlack absorbs the absorbing references'
// own truncation (alpha^200) and rounding.
const (
	prDelta       = 1e-9
	refSlack      = 1e-10
	defaultAlpha  = 0.85
	defaultRMax   = 1e-4
	defaultCycleK = 3
)

// refCache memoises reference vectors on one graph.
type refCache struct {
	g    *refGraph
	gT   *refGraph
	vecs map[string][]float64
}

func newRefCache(g *refGraph) *refCache {
	return &refCache{g: g, gT: g.transpose(), vecs: map[string][]float64{}}
}

func (rc *refCache) vec(kind string, v int) []float64 {
	key := fmt.Sprintf("%s/%d", kind, v)
	if x, ok := rc.vecs[key]; ok {
		return x
	}
	var x []float64
	switch kind {
	case "pr":
		x = pageRankRef(rc.g, defaultAlpha, v)
	case "cr":
		x = pageRankRef(rc.gT, defaultAlpha, v)
	case "col":
		x = backwardColumnRef(rc.g, defaultAlpha, v)
	case "fwd":
		x = forwardAbsorbRef(rc.g, defaultAlpha, v)
	}
	rc.vecs[key] = x
	return x
}

// check runs the property check that fits the item's algorithm.
func (rc *refCache) check(it *checkItem) error {
	p := it.params
	if p.Alpha != 0 && p.Alpha != defaultAlpha {
		return fmt.Errorf("no reference for alpha %g", p.Alpha)
	}
	g := rc.g
	node := func(label string) (int, error) { return g.node(label) }
	rmax := p.RMax
	if rmax == 0 {
		rmax = defaultRMax
	}
	switch it.algorithm {
	case algo.NamePageRank:
		return checkTopAgainst(g, it.top, rc.vec("pr", -1), -prDelta, prDelta)
	case algo.NameCheiRank:
		return checkTopAgainst(g, it.top, rc.vec("cr", -1), -prDelta, prDelta)
	case algo.Name2DRank:
		return checkTwoD(g, it.top, rc.vec("pr", -1), rc.vec("cr", -1), prDelta)
	case algo.NamePPR, algo.NamePCheiRank, algo.NameP2DRank:
		s, err := node(p.Source)
		if err != nil {
			return err
		}
		switch it.algorithm {
		case algo.NamePPR:
			return checkTopAgainst(g, it.top, rc.vec("pr", s), -prDelta, prDelta)
		case algo.NamePCheiRank:
			return checkTopAgainst(g, it.top, rc.vec("cr", s), -prDelta, prDelta)
		}
		return checkTwoD(g, it.top, rc.vec("pr", s), rc.vec("cr", s), prDelta)
	case algo.NameCycleRank:
		k := p.K
		if k == 0 {
			k = defaultCycleK
		}
		return checkCycleMembers(g, it.top, p.Source, k)
	case algo.NamePPRTarget:
		t, err := node(p.Target)
		if err != nil {
			return err
		}
		// Every estimate lower-bounds its π(v,t) by less than rmax.
		return checkTopAgainst(g, it.top, rc.vec("col", t), -refSlack, rmax+refSlack)
	case algo.NameBiPPRPair:
		s, err := node(p.Source)
		if err != nil {
			return err
		}
		t, err := node(p.Target)
		if err != nil {
			return err
		}
		pi := rc.vec("fwd", s)[t]
		est := 0.0
		switch {
		case len(it.top) == 1 && it.top[0].Label == p.Target:
			est = it.top[0].Score
		case len(it.top) != 0:
			return fmt.Errorf("pair answer lists %d entries, want the target alone", len(it.top))
		}
		if math.Abs(est-pi) >= rmax+refSlack {
			return fmt.Errorf("pair estimate %.12g, exact π(s,t) %.12g, allowed error %g", est, pi, rmax)
		}
		return nil
	}
	return fmt.Errorf("no reference for algorithm %q", it.algorithm)
}
