// Command perfbench is the platform's benchmark. It boots the serving
// stack in-process with crserver's default configuration behind a
// loopback listener, drives one workload over HTTP for a fixed
// window, checks every answer against independent references, and
// prints its metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload compare --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// wraps the layers' public entry points and reports the per-layer
// metrics instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/algo"
	"github.com/cyclerank/cyclerank-go/internal/datasets"
)

// setups is how many times a run boots the platform; setup_s is their
// median and the last boot serves the window.
const setups = 5

// settle is how long the workload runs, unmeasured, before the window
// opens.
const settle = 5 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: compare, target-warm or ingest")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 40, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newWorkload(name string, catalog *datasets.Catalog) (workload, error) {
	switch name {
	case "compare":
		return newCompareWL(catalog)
	case "target-warm":
		return newTargetWL(catalog), nil
	case "ingest":
		return ingestWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (compare, target-warm, ingest)", name)
}

// run boots, warms, measures, checks and reports one workload.
func run(name string, seed int64, window time.Duration, traced bool) (*report, error) {
	catalog, err := datasets.BuiltinCatalog()
	if err != nil {
		return nil, err
	}
	wl, err := newWorkload(name, catalog)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer removeDurably(work)
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// Set-up: boot on a fresh datastore, wait for the pre-warm, run the
	// workload's warm-up; several times, keeping the last platform.
	var (
		setupS []float64
		p      *platform
		c      *client
		dir    string
	)
	for i := 0; i < setups; i++ {
		if p != nil {
			c.closeIdle()
			if err := p.close(); err != nil {
				return nil, err
			}
			if err := removeDurably(dir); err != nil {
				return nil, err
			}
			runtime.GC()
			debug.FreeOSMemory()
		}
		dir = filepath.Join(work, fmt.Sprintf("boot-%d", i))
		start := time.Now()
		p, err = bootPlatform(dir, tr)
		if err != nil {
			return nil, err
		}
		c = newClient(p.base)
		if err := c.waitPrewarm(time.Minute); err != nil {
			p.close()
			return nil, err
		}
		if err := wl.warmUp(p, c); err != nil {
			p.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		c.closeIdle()
		p.close()
	}()
	c.stats.reset()
	// The clients run the workload unmeasured for settle, then measured
	// for the window. The first seconds of a fresh process run slower
	// (heap growth, a datastore directory filling, the disk finishing
	// the set-up's deletions), and clients that start together run in
	// step for a while. Each client enters the window at its own
	// operation boundary, out of step as it stays.
	rec, settled := newRecorder(), newRecorder()
	var (
		lw   layerWindow
		cpu0 float64
	)
	start := time.Now().Add(settle)
	opened := make(chan error, 1)
	go func() {
		time.Sleep(time.Until(start))
		var err error
		if traced {
			lw.metrics0, err = scrape(c)
			tr.armed.Store(true)
		}
		lw.rt0 = readRuntime()
		cpu0 = cpuSeconds()
		opened <- err
	}()
	drive(wl, c, seed, settled, rec, start, start.Add(window))
	if err := <-opened; err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()
	cpuS := cpuSeconds() - cpu0
	if settled.failed > 0 {
		return nil, fmt.Errorf("settling: %d operations failed: %v", settled.failed, settled.errs)
	}
	lw.rt1 = readRuntime()
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if traced {
		tr.armed.Store(false)
		if lw.metrics1, err = scrape(c); err != nil {
			return nil, err
		}
	}

	// Checks of every distinct answer against the references.
	failedChecks := verify(wl, rec, c.stats)
	calls := c.stats.snapshot()

	e2e := map[string]float64{
		"setup_s":        median(setupS),
		"peak_rss_mb":    peak,
		"ops_per_s":      float64(rec.ops-rec.failed) / elapsed,
		"latency_p50_ms": mixLatency(rec.latMS, rec.keys),
	}
	rep := &report{
		Correct:   calls.failed[kindCheck] == 0,
		Attempted: rec.ops,
		Failed:    min(rec.failed+failedChecks, rec.ops),
		Metrics:   map[string]metric{},
	}
	fmt.Printf("workload %s seed %d: %d operations in %.3f s, %d samples, setups %.3f s\n",
		name, seed, rec.ops, elapsed, len(rec.latMS), setupS)
	for _, m := range endToEnd {
		fmt.Printf("  %-28s %14.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	// The pooled median beside the per-key one, and the process's CPU
	// time per operation, which CPU steal does not inflate.
	fmt.Printf("  %-28s %14.4f ms\n", "latency_p50_ms_pooled", percentile(rec.latMS, 0.50))
	fmt.Printf("  %-28s %14.4f ms\n", "cpu_ms_per_op", 1000*cpuS/float64(rec.ops))
	// The tail and the upload round trip are reported here, not in the
	// result line: on this class of host the tails swing with CPU steal
	// and fsync latency beyond any usable bound, a p99 of a few hundred
	// samples is no tail, and not every workload uploads.
	fmt.Printf("  %-28s %14.4f ms\n", "latency_p90_ms", percentile(rec.latMS, 0.90))
	fmt.Printf("  %-28s %14.4f ms\n", "latency_p99_ms", percentile(rec.latMS, 0.99))
	if up := calls.ms[kindUpload]; len(up) > 0 {
		fmt.Printf("  %-28s %14.4f ms\n", "upload_p50_ms", median(up))
	}
	// Per-class medians, and the per-key median latency of each 5 s
	// slice of the window with its sample count: a drifting or bursty
	// host shows here.
	classes := make([]string, 0, len(rec.byClass))
	for cl, xs := range rec.byClass {
		classes = append(classes, fmt.Sprintf("%s %.3f ms (%d)", cl, median(xs), len(xs)))
	}
	sort.Strings(classes)
	fmt.Printf("  latency_p50_ms by class: %s\n", strings.Join(classes, ", "))
	var slices []string
	for i := 0; i < int(window/(5*time.Second)); i++ {
		lo, hi := start.Add(time.Duration(i)*5*time.Second), start.Add(time.Duration(i+1)*5*time.Second)
		var xs []float64
		var ks []string
		for j, t := range rec.doneAt {
			if !t.Before(lo) && t.Before(hi) {
				xs = append(xs, rec.latMS[j])
				ks = append(ks, rec.keys[j])
			}
		}
		slices = append(slices, fmt.Sprintf("%.2f (%d)", mixLatency(xs, ks), len(xs)))
	}
	fmt.Printf("  latency_p50_ms by 5 s slice: %s\n", strings.Join(slices, " "))
	if len(rec.runMS) == len(rec.latMS) {
		// One task per operation: the share of latency outside the
		// task's Started..Finished interval.
		fmt.Printf("  latency share outside task run: %.3f\n", 1-sum(rec.runMS)/sum(rec.latMS))
	}
	var kinds []string
	for k := opKind(0); k < numKinds; k++ {
		kinds = append(kinds, fmt.Sprintf("%s %d/%d", kindNames[k], calls.failed[k], calls.attempted[k]))
	}
	fmt.Printf("  failed/attempted by type: %s\n", strings.Join(kinds, ", "))
	for _, e := range append(calls.errs, rec.errs...) {
		fmt.Println("  error:", e)
	}

	if !traced {
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return rep, nil
	}
	layers, err := layerMetrics(tr, &lw, rec, calls, filepath.Join(work, "probe"))
	if err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", m.name)
		}
		rep.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("  %-28s %14.4f %s\n", m.name, v, m.unit)
	}
	return rep, nil
}

// drive runs the workload's clients. Each runs settling operations,
// recorded in settled on requests of their own, back to back until
// start, then measured ones, recorded in rec, until deadline; the last
// one started finishes. The settling inputs come from their own seed.
func drive(wl workload, c *client, seed int64, settled, rec *recorder, start, deadline time.Time) {
	sc := &client{base: c.base, hc: c.hc, stats: &callStats{}}
	var wg sync.WaitGroup
	for k := 0; k < wl.clients(); k++ {
		warm := wl.client(sc, rand.New(rand.NewSource(-1-seed*1000-int64(k))), settled)
		op := wl.client(c, rand.New(rand.NewSource(seed*1000+int64(k))), rec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(start) {
				warm()
			}
			for time.Now().Before(deadline) {
				op() // failures are counted by the recorder
			}
		}()
	}
	wg.Wait()
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the platform sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// runAlgorithms are the algorithms whose wrapped Run the traced run
// times, one metric each.
var runAlgorithms = []string{
	algo.NameCycleRank, algo.NamePageRank, algo.NamePPR, algo.NameCheiRank, algo.NamePCheiRank,
	algo.Name2DRank, algo.NameP2DRank, algo.NamePPRTarget, algo.NameBiPPRPair,
}

// perLayer lists the traced run's metrics. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.submit_ms", "ms"},
		{"server.poll_ms", "ms"},
		{"server.poll_bytes", "bytes"},
		{"server.agreement_ms", "ms"},
		{"server.upload_ms", "ms"},
		{"server.delete_ms", "ms"},
		{"task.queue_wait_ms", "ms"},
		{"task.run_ms", "ms"},
		{"task.readable_lag_ms", "ms"},
	}
	for _, a := range runAlgorithms {
		defs = append(defs, metricDef{"algo.run_ms." + a, "ms"})
	}
	return append(defs,
		metricDef{"pagerank.iterations", "count"},
		metricDef{"core.cycles", "count"},
		metricDef{"bippr.index_get_ms.memory", "ms"},
		metricDef{"bippr.index_get_ms.disk", "ms"},
		metricDef{"bippr.index_get_ms.computed", "ms"},
		metricDef{"bippr.walk_phase_ms", "ms"},
		metricDef{"bippr.push_ops", "count"},
		metricDef{"bippr.walks", "count"},
		metricDef{"artifact.memory_hit_ratio", "ratio"},
		metricDef{"artifact.disk_write_bytes", "bytes"},
		metricDef{"datastore.fsyncs_per_task", "count"},
		metricDef{"datastore.save_result_ms", "ms"},
		metricDef{"datastore.append_log_ms", "ms"},
		metricDef{"datastore.load_result_ms", "ms"},
		metricDef{"datastore.save_dataset_ms", "ms"},
		metricDef{"datastore.load_dataset_ms", "ms"},
		metricDef{"formats.read_ms", "ms"},
		metricDef{"graph.fingerprint_ms", "ms"},
		metricDef{"graph.memory_bytes", "bytes"},
		metricDef{"go.alloc_bytes_per_op", "bytes"},
		metricDef{"go.gc_pause_ms", "ms"},
	)
}()

// layerMetrics assembles the per-layer metrics of a traced run:
// client-side round trips, task timestamps, the wrapped layers'
// timings, /metrics and runtime deltas, and the datastore probe.
func layerMetrics(tr *tracer, lw *layerWindow, rec *recorder, calls callData, probeDir string) (map[string]float64, error) {
	out := map[string]float64{
		"server.submit_ms":     median(calls.ms[kindSubmit]),
		"server.poll_ms":       median(calls.ms[kindPoll]),
		"server.poll_bytes":    median(calls.bytes[kindPoll]),
		"server.agreement_ms":  median(calls.ms[kindAgreement]),
		"server.upload_ms":     median(calls.ms[kindUpload]),
		"server.delete_ms":     median(calls.ms[kindDelete]),
		"task.queue_wait_ms":   median(rec.queueMS),
		"task.run_ms":          median(rec.runMS),
		"task.readable_lag_ms": median(rec.lagMS),
	}
	tr.mu.Lock()
	for _, a := range runAlgorithms {
		out["algo.run_ms."+a] = median(tr.runMS[a])
	}
	out["pagerank.iterations"] = mean(tr.iterations)
	out["core.cycles"] = mean(tr.cycles)
	out["bippr.index_get_ms.computed"] = median(tr.indexMS[0])
	out["bippr.index_get_ms.memory"] = median(tr.indexMS[1])
	out["bippr.index_get_ms.disk"] = median(tr.indexMS[2])
	out["bippr.walk_phase_ms"] = median(tr.walkMS)
	tr.mu.Unlock()

	ops := float64(rec.ops)
	queries := float64(rec.bipprQueries)
	out["bippr.push_ops"] = ratio(lw.delta("cyclerank_bippr_reverse_push_ops_total"), queries)
	out["bippr.walks"] = ratio(lw.delta("cyclerank_bippr_walks_total"), queries)
	memHits := lw.delta("cyclerank_artifact_cache_hits_total", `tier="memory"`)
	lookups := lw.delta("cyclerank_artifact_cache_hits_total") + lw.delta("cyclerank_artifact_cache_misses_total")
	out["artifact.memory_hit_ratio"] = ratio(memHits, lookups)
	out["artifact.disk_write_bytes"] = ratio(lw.delta("cyclerank_artifact_cache_disk_written_bytes_total"), ops)
	out["datastore.fsyncs_per_task"] = ratio(lw.delta("cyclerank_datastore_fsyncs_total"),
		lw.delta("cyclerank_scheduler_tasks_total", `state="done"`))
	out["go.alloc_bytes_per_op"] = ratio(float64(lw.rt1.allocBytes-lw.rt0.allocBytes), ops)
	out["go.gc_pause_ms"] = ratio(float64(lw.rt1.pauseNS-lw.rt0.pauseNS)/1e6, ops)

	if err := probeStore(probeDir, rec.probes, rec.uploads, out); err != nil {
		return nil, err
	}
	return out, nil
}

// removeDurably deletes dir and syncs its parent, so the deletion is
// committed now instead of during whatever runs next on the disk.
func removeDurably(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	parent, err := os.Open(filepath.Dir(dir))
	if err != nil {
		return err
	}
	defer parent.Close()
	return parent.Sync()
}
