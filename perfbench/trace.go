package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/bippr"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/formats"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
	"github.com/cyclerank/cyclerank-go/internal/ranking"
	"github.com/cyclerank/cyclerank-go/internal/server"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// tracer takes the per-layer timings of a traced run from outside the
// program: it wraps the algorithms and the index store handed to
// server.New and records only while armed (the measured window).
type tracer struct {
	armed atomic.Bool

	mu         sync.Mutex
	runMS      map[string][]float64
	iterations []float64 // PageRank-family Result.Iterations
	cycles     []float64 // CycleRank Result.CyclesFound
	indexMS    [3][]float64
	walkMS     []float64
}

func newTracer() *tracer { return &tracer{runMS: map[string][]float64{}} }

// install builds the default registry over timed wrappers: the same
// tiered index store and endpoint cache server.New would build, with
// every algorithm and the index store measured at its boundary.
func (t *tracer) install(cfg *server.Config) {
	idx := &timedIndexStore{inner: bippr.NewTieredStore(bippr.DefaultCacheSize, cfg.Store), tr: t}
	ep := bippr.NewTieredEndpointCache(bippr.DefaultEndpointCacheSize, cfg.Store)
	reg := algo.NewRegistry()
	for _, a := range algo.BuiltinsWith(bippr.NewEstimatorWithCaches(idx, ep)) {
		if err := reg.Register(timedAlgo{Algorithm: a, tr: t}); err != nil {
			panic(err) // built-in names are unique
		}
	}
	cfg.Registry, cfg.IndexStore, cfg.EndpointCache = reg, idx, ep
}

// runRecord collects the index-store time spent inside one algorithm
// run; the wrapper passes it down through the run's context.
type runRecord struct{ indexNS atomic.Int64 }

type runKey struct{}

func msSince(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }

// timedAlgo times Run and reads the work counters off its result.
type timedAlgo struct {
	algo.Algorithm
	tr *tracer
}

func (a timedAlgo) NeedsTarget() bool { return algo.NeedsTarget(a.Algorithm) }

func (a timedAlgo) Run(ctx context.Context, g *graph.Graph, p algo.Params) (*ranking.Result, error) {
	if !a.tr.armed.Load() {
		return a.Algorithm.Run(ctx, g, p)
	}
	rec := &runRecord{}
	start := time.Now()
	res, err := a.Algorithm.Run(context.WithValue(ctx, runKey{}, rec), g, p)
	ms := msSince(start)
	if err != nil {
		return res, err
	}
	t := a.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	name := a.Name()
	t.runMS[name] = append(t.runMS[name], ms)
	switch name {
	case algo.NameCycleRank:
		t.cycles = append(t.cycles, float64(res.CyclesFound))
	case algo.NamePageRank, algo.NamePPR, algo.NameCheiRank, algo.NamePCheiRank, algo.Name2DRank, algo.NameP2DRank:
		t.iterations = append(t.iterations, float64(res.Iterations))
	case algo.NameBiPPRPair:
		t.walkMS = append(t.walkMS, ms-float64(rec.indexNS.Load())/1e6)
	}
	return res, err
}

// timedIndexStore times every index fetch by the tier that served it.
type timedIndexStore struct {
	inner *bippr.TieredStore
	tr    *tracer
}

func (s *timedIndexStore) GetOrCompute(ctx context.Context, g *graph.Graph, target graph.NodeID, alpha, rmax float64,
	compute func() (*bippr.TargetIndex, error)) (*bippr.TargetIndex, bippr.Tier, error) {
	if !s.tr.armed.Load() {
		return s.inner.GetOrCompute(ctx, g, target, alpha, rmax, compute)
	}
	start := time.Now()
	idx, tier, err := s.inner.GetOrCompute(ctx, g, target, alpha, rmax, compute)
	d := time.Since(start)
	if rec, ok := ctx.Value(runKey{}).(*runRecord); ok {
		rec.indexNS.Add(d.Nanoseconds())
	}
	if err == nil && int(tier) >= 0 && int(tier) < len(s.tr.indexMS) {
		s.tr.mu.Lock()
		s.tr.indexMS[tier] = append(s.tr.indexMS[tier], float64(d.Nanoseconds())/1e6)
		s.tr.mu.Unlock()
	}
	return idx, tier, err
}

func (s *timedIndexStore) Stats() bippr.StoreStats { return s.inner.Stats() }

// MetricsRegistry keeps the wrapped store's series in /metrics.
func (s *timedIndexStore) MetricsRegistry() *obs.Registry { return s.inner.MetricsRegistry() }

// scrape reads /metrics into series → value.
func scrape(c *client) (map[string]float64, error) {
	data, err := c.roundTrip("GET", "/metrics", nil, 200)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds every series of the family name whose label set
// contains each of the given label pairs.
func sumSeries(m map[string]float64, name string, labels ...string) float64 {
	total := 0.0
	for series, v := range m {
		fam, lbl, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// runtimeSample is the process's cumulative allocation and GC pause.
type runtimeSample struct{ allocBytes, pauseNS uint64 }

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{allocBytes: ms.TotalAlloc, pauseNS: ms.PauseTotalNs}
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// layerWindow holds what the traced run reads around the window.
type layerWindow struct {
	metrics0, metrics1 map[string]float64
	rt0, rt1           runtimeSample
}

func (w *layerWindow) delta(name string, labels ...string) float64 {
	return sumSeries(w.metrics1, name, labels...) - sumSeries(w.metrics0, name, labels...)
}

// probeStore times the datastore and upload-path layers directly on
// the workload's own documents and inputs, in a separate store on the
// same filesystem, after the window.
func probeStore(dir string, results [][]byte, uploads []uploadInput, out map[string]float64) error {
	store, err := datastore.Open(dir)
	if err != nil {
		return err
	}
	var save, appendLog, load []float64
	for i, raw := range results {
		var doc task.Result
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("probe: decoding result: %w", err)
		}
		id := fmt.Sprintf("probe-%d", i)
		start := time.Now()
		if err := store.SaveResult(id, doc); err != nil {
			return err
		}
		save = append(save, msSince(start))
		start = time.Now()
		if err := store.AppendLog(id, fmt.Sprintf("worker 0: executing %s on %s (%s)", doc.Task.Algorithm, doc.Task.Dataset, doc.Task.Params)); err != nil {
			return err
		}
		appendLog = append(appendLog, msSince(start))
		var back task.Result
		start = time.Now()
		if err := store.LoadResult(id, &back); err != nil {
			return err
		}
		load = append(load, msSince(start))
	}
	out["datastore.save_result_ms"] = median(save)
	out["datastore.append_log_ms"] = median(appendLog)
	out["datastore.load_result_ms"] = median(load)

	var read, fp, mem, saveDS, loadDS []float64
	for i, up := range uploads {
		text, _ := up.text()
		start := time.Now()
		g, err := formats.Read(bytes.NewReader(text), up.format)
		if err != nil {
			return fmt.Errorf("probe: parsing upload: %w", err)
		}
		read = append(read, msSince(start))
		start = time.Now()
		_ = graph.Fingerprint(g)
		fp = append(fp, msSince(start))
		mem = append(mem, float64(g.MemoryFootprint()))
		name := fmt.Sprintf("probe-%d", i)
		start = time.Now()
		if err := store.SaveDataset(name, g); err != nil {
			return err
		}
		saveDS = append(saveDS, msSince(start))
		start = time.Now()
		if _, err := store.LoadDataset(name); err != nil {
			return err
		}
		loadDS = append(loadDS, msSince(start))
	}
	out["formats.read_ms"] = median(read)
	out["graph.fingerprint_ms"] = median(fp)
	out["graph.memory_bytes"] = median(mem)
	out["datastore.save_dataset_ms"] = median(saveDS)
	out["datastore.load_dataset_ms"] = median(loadDS)
	return nil
}
