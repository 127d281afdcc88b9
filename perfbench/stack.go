package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/classify"
	"cbde/internal/core"
	"cbde/internal/deltaclient"
	"cbde/internal/deltahttp"
	"cbde/internal/deltaserver"
	"cbde/internal/flightrec"
	"cbde/internal/origin"
)

// stack is the real serving stack of one pass, in this process over
// loopback: an origin.Site, a deltaserver.Server over a core.Engine
// configured as cmd/deltaserver's defaults, and one deltaclient.Client per
// user, all sharing one transport capped at conns connections.
type stack struct {
	w       *workload
	site    *origin.Site
	eng     *core.Engine
	clients []*deltaclient.Client
	userMu  []sync.Mutex // held while a user's request is in flight
	tr      *http.Transport
	servers []*http.Server

	spillDir string
	bases    baseLog
	layers   *layerTimes // nil unless the pass is traced

	tickMu sync.Mutex
	tick0  int // site tick of request 0
}

// bootOpts selects the per-pass variations of the stack.
type bootOpts struct {
	conns   int
	workDir string           // parent of the spill directory
	now     func() time.Time // engine clock; nil = wall clock
	traced  bool             // time layer boundaries and trace engine stages
	// syncAdmit admits selector samples on the request path instead of
	// on a goroutine. The replay needs it: an asynchronous admission's
	// budget sweep races the request's own sweep even with one request in
	// flight, and which of them prunes what then differs between runs.
	syncAdmit bool
}

func boot(w *workload, seed int64, o bootOpts) (*stack, error) {
	s := &stack{w: w, site: w.newSite(seed)}
	if o.traced {
		s.layers = &layerTimes{}
	}
	if w.spill {
		if err := os.MkdirAll(o.workDir, 0o755); err != nil {
			return nil, fmt.Errorf("create work dir: %w", err)
		}
		dir, err := os.MkdirTemp(o.workDir, "spill-")
		if err != nil {
			return nil, fmt.Errorf("create spill dir: %w", err)
		}
		s.spillDir = dir
	}

	// cmd/deltaserver's flag defaults, with the workload's overrides.
	rebase := 10 * time.Minute
	if w.rebaseTimeout > 0 {
		rebase = w.rebaseTimeout
	}
	eng, err := core.NewEngine(core.Config{
		Mode:      core.ModeClassBased,
		MemBudget: w.memBudget,
		SpillDir:  s.spillDir,
		Classify:  classify.Config{MaxProbes: 8, PopularFraction: 0.75, MatchThreshold: 0.35},
		Selector: basefile.Config{
			SampleProb:    0.2,
			MaxSamples:    8,
			RebaseTimeout: rebase,
			AsyncSampling: !o.syncAdmit,
		},
		Anon:          anonymize.Config{M: 2, N: 5},
		MaxDeltaRatio: 0.5,
		GraphDepth:    w.graphDepth,
		Now:           o.now,
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("engine: %w", err)
	}
	s.eng = eng
	eng.SetTracing(o.traced)

	originURL, err := s.listen(s.originHandler())
	if err != nil {
		s.close()
		return nil, err
	}
	rec := flightrec.New("local", 4096, 50*time.Millisecond)
	rec.RegisterMetrics(eng.Metrics())
	srv, err := deltaserver.New(originURL, eng,
		deltaserver.WithPublicHost(w.site.Host),
		deltaserver.WithNodeID("local"),
		deltaserver.WithFlightRecorder(rec))
	if err != nil {
		s.close()
		return nil, fmt.Errorf("delta-server: %w", err)
	}
	frontURL, err := s.listen(&front{srv: srv, s: s})
	if err != nil {
		s.close()
		return nil, err
	}

	s.tr = &http.Transport{
		MaxConnsPerHost:     o.conns,
		MaxIdleConnsPerHost: o.conns,
		DisableCompression:  true,
	}
	hc := &http.Client{Transport: s.tr, Timeout: 30 * time.Second}
	s.clients = make([]*deltaclient.Client, w.users)
	s.userMu = make([]sync.Mutex, w.users)
	for u := range s.clients {
		opts := []deltaclient.Option{deltaclient.WithHTTPClient(hc), deltaclient.WithUser(userName(u))}
		if w.lagMean > 0 {
			u := u
			opts = append(opts, deltaclient.WithRefreshLag(func(latest int) int {
				return latest - w.lagFor(seed, u, latest)
			}))
		}
		s.clients[u] = deltaclient.New(frontURL, opts...)
	}
	return s, nil
}

// listen serves h on a fresh loopback port and returns its URL.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	s.servers = append(s.servers, hs)
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// close stops the servers, closes idle client connections and the disk
// tier, and removes the spill directory.
func (s *stack) close() {
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	for _, hs := range s.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = hs.Shutdown(ctx) // a stuck connection is dropped at exit anyway
		cancel()
	}
	if s.eng != nil {
		s.eng.Quiesce()
		_ = s.eng.Close() // the spill directory is removed next
	}
	if s.spillDir != "" {
		_ = os.RemoveAll(s.spillDir)
	}
}

// advanceTo moves the site's content to the tick request i is due at.
// Ticks only move forward, so two connections picking up adjacent
// requests out of order never rewind the content.
func (s *stack) advanceTo(i int) {
	want := s.tick0 + s.w.tickAt(i)
	s.tickMu.Lock()
	if d := want - s.site.Tick(); d > 0 {
		s.site.Advance(d)
	}
	s.tickMu.Unlock()
}

// clientTotals sums the transfer counters of every client.
func (s *stack) clientTotals() deltaclient.Stats {
	var t deltaclient.Stats
	for _, c := range s.clients {
		st := c.Stats()
		t.Requests += st.Requests
		t.DeltaResponses += st.DeltaResponses
		t.ChainResponses += st.ChainResponses
		t.FullResponses += st.FullResponses
		t.PayloadBytes += st.PayloadBytes
		t.BaseFetches += st.BaseFetches
		t.BaseBytes += st.BaseBytes
	}
	return t
}

// originHandler is the site's handler, timed when the pass is traced.
func (s *stack) originHandler() http.Handler {
	h := s.site.Handler()
	if s.layers == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		s.layers.add(&s.layers.origin, time.Since(t0))
	})
}

// front is the benchmark handler the delta-server is mounted behind. It
// keeps a copy of each distinct base-file served, for the privacy check,
// and times ServeHTTP when the pass is traced.
type front struct {
	srv *deltaserver.Server
	s   *stack
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lt := f.s.layers
	var t0 time.Time
	if lt != nil {
		t0 = time.Now()
	}
	isBase := strings.HasPrefix(r.URL.Path, deltahttp.BasePathPrefix)
	if isBase && !f.s.bases.has(r.URL.Path) {
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
		f.srv.ServeHTTP(cw, r)
		if cw.status == http.StatusOK {
			f.s.bases.put(r.URL.Path, cw.body)
		}
	} else {
		f.srv.ServeHTTP(w, r)
	}
	if lt == nil {
		return
	}
	d := time.Since(t0)
	if isBase {
		lt.add(&lt.base, d)
	} else {
		lt.add(&lt.serve, d)
	}
}

// captureWriter copies the body written through it.
type captureWriter struct {
	http.ResponseWriter
	status int
	body   []byte
}

func (c *captureWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body = append(c.body, p...)
	return c.ResponseWriter.Write(p)
}

// baseLog holds one copy of every distinct base-file (class, version)
// served in a pass. A (class, version) pair names one byte string, so the
// first copy stands for all later fetches of it.
type baseLog struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *baseLog) has(path string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[path]
	return ok
}

func (b *baseLog) put(path string, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m == nil {
		b.m = make(map[string][]byte)
	}
	if _, ok := b.m[path]; !ok {
		b.m[path] = body
	}
}

func (b *baseLog) all() map[string][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m
}

// layerTimes collects the traced pass's layer-boundary timings. Only the
// timed window records (on is set for its duration).
type layerTimes struct {
	on atomic.Bool

	mu     sync.Mutex
	get    []time.Duration // deltaclient.Client.Get
	serve  []time.Duration // deltaserver ServeHTTP, document requests
	base   []time.Duration // deltaserver ServeHTTP, base-file requests
	origin []time.Duration // origin handler
}

func (lt *layerTimes) add(dst *[]time.Duration, d time.Duration) {
	if !lt.on.Load() {
		return
	}
	lt.mu.Lock()
	*dst = append(*dst, d)
	lt.mu.Unlock()
}
