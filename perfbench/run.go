package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"cbde/internal/obs"
)

// runner holds what the passes of one run share: the request stream, the
// rendering cache the checks use, the users' card numbers and the tally
// of operations attempted and failed.
type runner struct {
	cfg   config
	n     int // timed requests
	reqs  []request
	rc    *renderCache
	cards map[string]bool // nil unless the site is personalized

	attempted, failed int
}

func (r *runner) tally(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// bench runs one workload and returns its end-to-end metrics, or with
// cfg.trace its per-layer metrics.
func bench(cfg config) (result, error) {
	w := cfg.w
	r := &runner{cfg: cfg, n: max(1, int(math.Round(w.rate*cfg.seconds)))}
	r.rc = newRenderCache(w, cfg.seed)
	if w.site.Personalized {
		cards, err := r.rc.cardNumbers()
		if err != nil {
			return result{}, err
		}
		r.cards = cards
	}

	// Served pass: set up cfg.setups times (setup_s is their median), keep
	// the last stack and send the timed stream open-loop.
	setups := cfg.setups
	if cfg.trace {
		setups = 1 // setup_s is not reported
	}
	var took []time.Duration
	var s *stack
	for k := 0; k < setups; k++ {
		if s != nil {
			r.close(s)
		}
		var d time.Duration
		var err error
		if s, d, err = r.setup(false); err != nil {
			return result{}, err
		}
		took = append(took, d)
	}
	dr := s.drive(r.reqs[w.warmup():], w.warmup(), cfg.conns, cfg.rate)
	r.report("served", s, dr)
	r.close(s)
	lats := durations(dr.outs, func(o outcome) time.Duration { return o.lat })
	p50, p99 := ms(quantile(lats, 0.5)), ms(thirdsP99(dr.outs))
	cpu := r.cpuPerReq(dr)

	rr, err := r.replay()
	if err != nil {
		return result{}, err
	}

	res := result{}
	if !cfg.trace {
		res.metrics = map[string]metric{
			"setup_s":            {median(took).Seconds(), "s"},
			"cpu_ms_per_req":     {cpu, "ms"},
			"wire_bytes_per_req": {rr.wireBytesPerReq, "B"},
			"storage_kb":         {rr.storageKB, "KiB"},
		}
	} else {
		if res.metrics, err = r.traced(); err != nil {
			return result{}, err
		}
		for k, v := range rr.counts {
			res.metrics[k] = metric{v, countUnit(k)}
		}
		res.metrics["trace.untraced_p50_ms"] = metric{p50, "ms"}
		res.metrics["trace.untraced_p99_ms"] = metric{p99, "ms"}
		res.metrics["trace.untraced_cpu_ms_per_req"] = metric{cpu, "ms"}
	}
	res.attempted, res.failed = r.attempted, r.failed
	return res, nil
}

// setup boots a stack and sends the warm-up requests closed-loop: all
// that happens before the first timed request is due. The stream itself
// is generated again inside the timing, since a fresh server generates
// its inputs too.
func (r *runner) setup(traced bool) (*stack, time.Duration, error) {
	w, cfg := r.cfg.w, r.cfg
	t0 := time.Now()
	r.reqs = w.stream(cfg.seed, r.n)
	s, err := boot(w, cfg.seed, bootOpts{conns: cfg.conns, workDir: cfg.workDir, traced: traced})
	if err != nil {
		return nil, 0, err
	}
	warm := s.drive(r.reqs[:w.warmup()], 0, cfg.conns, 0)
	took := time.Since(t0)
	r.tally(len(warm.outs), r.rc.check(r.reqs[:w.warmup()], warm.outs, cfg.log))
	cfg.log.printf("setup: %d warm-up requests in %.3fs (%.0f req/s closed-loop on %d connections)",
		len(warm.outs), warm.wall.Seconds(), float64(len(warm.outs))/warm.wall.Seconds(), cfg.conns)
	return s, took, nil
}

// report checks a served pass's outcomes and logs what the generator and
// the stack did.
func (r *runner) report(label string, s *stack, dr driveResult) {
	log := r.cfg.log
	failed := r.rc.check(r.reqs[r.cfg.w.warmup():], dr.outs, log)
	r.tally(len(dr.outs), failed)
	waits := durations(dr.outs, func(o outcome) time.Duration { return o.wait })
	lats := durations(dr.outs, func(o outcome) time.Duration { return o.lat })
	log.printf("pass %s: attempted %d failed %d base-refresh errors %d in %.3fs (%.0f req/s); loadgen.late_ms %.3f wait_p50_ms %.3f wait_p99_ms %.3f",
		label, len(dr.outs), failed, refreshErrors(dr.outs), dr.wall.Seconds(), float64(len(dr.outs))/dr.wall.Seconds(),
		ms(dr.late), ms(quantile(waits, 0.5)), ms(quantile(waits, 0.99)))
	log.printf("pass %s: latency ms p50 %.3f p90 %.3f p95 %.3f p99 %.3f p99.9 %.3f max %.3f; p99 of thirds %.3f; %d GC cycles",
		label, ms(quantile(lats, 0.5)), ms(quantile(lats, 0.9)), ms(quantile(lats, 0.95)), ms(quantile(lats, 0.99)),
		ms(quantile(lats, 0.999)), ms(quantile(lats, 1)), ms(thirdsP99(dr.outs)), dr.gcs)
	log.printf("pass %s: %s; resident class state at the end %.1f KiB", label, tailMix(dr.outs),
		float64(s.eng.StoreStats().Resident.Total)/1024)
}

// close runs the base-file privacy check on a stack and shuts it down.
func (r *runner) close(s *stack) {
	if r.cards != nil {
		r.tally(s.checkBases(r.cards, r.cfg.log))
	}
	s.close()
}

func (r *runner) cpuPerReq(dr driveResult) float64 {
	return float64(dr.cpu) / float64(time.Millisecond) / float64(r.n)
}

// replay runs the replay pass on a fresh stack driven by the schedule's
// clock.
func (r *runner) replay() (replayResult, error) {
	cfg := r.cfg
	clock := &vclock{}
	s, err := boot(cfg.w, cfg.seed, bootOpts{conns: 1, workDir: cfg.workDir, now: clock.now, syncAdmit: true})
	if err != nil {
		return replayResult{}, err
	}
	t0 := time.Now()
	rr := s.replay(r.reqs, cfg.w.warmup(), clock, cfg.log)
	r.tally(rr.attempted, rr.failed)
	cfg.log.printf("pass replay: attempted %d failed %d base-refresh errors %d in %.3fs (one connection, unscheduled)",
		rr.attempted, rr.failed, rr.refreshErrs, time.Since(t0).Seconds())
	r.close(s)
	return rr, nil
}

// traced sets up a stack with tracing on and sends the timed stream
// again, timing each layer boundary, reading the engine's stage spans and
// profiling CPU over the timed window.
func (r *runner) traced() (map[string]metric, error) {
	w, cfg := r.cfg.w, r.cfg
	s, _, err := r.setup(true)
	if err != nil {
		return nil, err
	}
	reg := s.eng.Metrics()
	proc := reg.Histogram("cbde_process_duration_seconds")
	stageFam := reg.HistogramFamily("cbde_stage_duration_seconds", "", []string{"stage"})
	stageSums := func() (sums [obs.NumStages]float64) {
		for _, st := range obs.Stages() {
			sums[st] = stageFam.With(st.String()).Sum()
		}
		return sums
	}
	proc0, stages0 := proc.Sum(), stageSums()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		s.close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	s.layers.on.Store(true)
	dr := s.drive(r.reqs[w.warmup():], w.warmup(), cfg.conns, cfg.rate)
	s.layers.on.Store(false)
	pprof.StopCPUProfile()
	procSum, stages1 := proc.Sum()-proc0, stageSums()
	r.report("traced", s, dr)
	r.close(s)

	lt := s.layers
	perReq := func(seconds float64) float64 { return seconds * 1e3 / float64(r.n) }
	lats := durations(dr.outs, func(o outcome) time.Duration { return o.lat })
	waits := durations(dr.outs, func(o outcome) time.Duration { return o.wait })
	m := map[string]metric{
		"deltaclient.get_ms":   {ms(quantile(lt.get, 0.5)), "ms"},
		"deltaclient.self_ms":  {perReq(sum(lt.get) - sum(lt.serve) - sum(lt.base)), "ms"},
		"deltaserver.serve_ms": {ms(quantile(lt.serve, 0.5)), "ms"},
		"deltaserver.self_ms":  {perReq(sum(lt.serve) - sum(lt.origin) - procSum), "ms"},
		"deltaserver.base_ms":  {perReq(sum(lt.base)), "ms"},
		"origin.render_ms":     {perReq(sum(lt.origin)), "ms"},
		"core.process_ms":      {perReq(procSum), "ms"},
		"loadgen.wait_p50_ms":  {ms(quantile(waits, 0.5)), "ms"},
		"loadgen.wait_p99_ms":  {ms(quantile(waits, 0.99)), "ms"},
		"loadgen.late_ms":      {ms(dr.late), "ms"},
		"trace.p50_ms":         {ms(quantile(lats, 0.5)), "ms"},
		"trace.p99_ms":         {ms(thirdsP99(dr.outs)), "ms"},
		"trace.cpu_ms_per_req": {r.cpuPerReq(dr), "ms"},
	}
	other := procSum
	for _, st := range obs.Stages() {
		d := stages1[st] - stages0[st]
		other -= d
		if st == obs.StageForward {
			continue // standalone server: no intra-tier hops
		}
		m["core.stage."+st.String()+"_ms"] = metric{perReq(d), "ms"}
	}
	m["core.stage.other_ms"] = metric{perReq(other), "ms"}

	cpu, err := attributeCPU(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, d := range cpu {
		m[k] = metric{perReq(d.Seconds()), "ms"}
	}
	return m, nil
}

// sum is the total of ds in seconds.
func sum(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

// thirdsP99 is the median of the p99 latencies of the window's three
// consecutive thirds. Each third holds at least a thousand requests at the
// workloads' rates, so at least ten lie beyond each p99, and a stall of
// the shared host that lands in one third moves one of three values
// instead of the figure.
func thirdsP99(outs []outcome) time.Duration {
	var p []time.Duration
	for k := 0; k < 3; k++ {
		part := outs[k*len(outs)/3 : (k+1)*len(outs)/3]
		p = append(p, quantile(durations(part, func(o outcome) time.Duration { return o.lat }), 0.99))
	}
	return median(p)
}
