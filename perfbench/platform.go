package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/datasets"
	"github.com/cyclerank/cyclerank-go/internal/datastore"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/server"
	"github.com/cyclerank/cyclerank-go/internal/task"
)

// platform is one in-process instance of the serving stack behind a
// loopback listener.
type platform struct {
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	base    string
	catalog *datasets.Catalog
}

// bootPlatform starts the server over a fresh datastore in dir with
// the configuration crserver's default flags produce. A non-nil
// tracer swaps in its timed algorithm registry and index store.
func bootPlatform(dir string, tr *tracer) (*platform, error) {
	// crserver threads its hot-path flags (both default 0) before any
	// graph is built.
	graph.SetHotPath(graph.HotPathConfig{})
	store, err := datastore.Open(dir)
	if err != nil {
		return nil, err
	}
	catalog, err := datasets.BuiltinCatalog()
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Catalog:     catalog,
		Store:       store,
		Workers:     4,
		TaskTimeout: 5 * time.Minute,
		Admission:   task.AdmissionConfig{RetryAfter: time.Second},
		PreWarm:     true,
	}
	if tr != nil {
		tr.install(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	p := &platform{
		srv:     srv,
		httpSrv: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		catalog: catalog,
	}
	go func() { p.served <- p.httpSrv.Serve(ln) }()
	return p, nil
}

// close stops the listener, the background lifecycle work and the
// scheduler, in crserver's shutdown order, and waits for each.
func (p *platform) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errHTTP := p.httpSrv.Shutdown(ctx)
	if err := <-p.served; !errors.Is(err, http.ErrServerClosed) {
		errHTTP = errors.Join(errHTTP, err)
	}
	p.srv.Close()
	return errors.Join(errHTTP, p.srv.Scheduler().Shutdown(ctx))
}

// opKind names the request types the accounting splits by.
type opKind int

const (
	kindSubmit opKind = iota
	kindPoll
	kindAgreement
	kindUpload
	kindDelete
	kindCheck
	numKinds
)

var kindNames = [numKinds]string{"submit", "poll", "agreement", "upload", "delete", "check"}

// callStats accumulates, per request type, attempts, failures, round
// trip times and response sizes.
type callStats struct {
	mu sync.Mutex
	d  callData
}

type callData struct {
	attempted [numKinds]int
	failed    [numKinds]int
	ms        [numKinds][]float64
	bytes     [numKinds][]float64
	errs      []string
}

func (c *callStats) record(kind opKind, ms float64, size int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.d.attempted[kind]++
	if err != nil {
		c.d.failed[kind]++
		if len(c.d.errs) < 5 {
			c.d.errs = append(c.d.errs, fmt.Sprintf("%s: %v", kindNames[kind], err))
		}
		return
	}
	c.d.ms[kind] = append(c.d.ms[kind], ms)
	c.d.bytes[kind] = append(c.d.bytes[kind], float64(size))
}

// snapshot returns a copy of everything recorded.
func (c *callStats) snapshot() callData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.d
}

// check records the outcome of one correctness check.
func (c *callStats) check(err error) error {
	c.record(kindCheck, 0, 0, err)
	return err
}

// reset drops everything recorded so far (the warm-up's requests).
func (c *callStats) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.d = callData{}
}

// client drives the platform over HTTP. Its transport holds at most
// two connections, the host's two CPUs.
type client struct {
	base  string
	hc    *http.Client
	stats *callStats
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		stats: &callStats{}}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// call sends one request, requires status want, decodes a JSON body
// into out (when non-nil) and records the round trip under kind. It
// returns the raw body.
func (c *client) call(kind opKind, method, path string, body []byte, want int, out any) ([]byte, error) {
	start := time.Now()
	data, err := c.roundTrip(method, path, body, want)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err == nil && out != nil {
		if err = json.Unmarshal(data, out); err != nil {
			err = fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	c.stats.record(kind, ms, len(data), err)
	return data, err
}

func (c *client) roundTrip(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, data)
	}
	return data, nil
}

// waitPrewarm polls /api/status until the start-up pre-warm is done.
func (c *client) waitPrewarm(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st struct {
			Prewarm server.PrewarmStatus `json:"prewarm"`
		}
		if err := c.getJSON("/api/status", &st); err != nil {
			return err
		}
		switch st.Prewarm.State {
		case "done":
			if st.Prewarm.Errors != 0 {
				return fmt.Errorf("pre-warm finished with %d errors", st.Prewarm.Errors)
			}
			return nil
		case "running":
		default:
			return fmt.Errorf("pre-warm state %q", st.Prewarm.State)
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("pre-warm not done after %s", timeout)
}

// getJSON is an unrecorded GET for set-up reads.
func (c *client) getJSON(path string, out any) error {
	data, err := c.roundTrip(http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}
