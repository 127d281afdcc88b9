package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cbde/internal/origin"
)

// digestSeed keys document digests; digests are only compared within one
// process.
var digestSeed = maphash.MakeSeed()

// outcome is what one request returned, recorded during the timed window
// and checked after it, so neither the timer nor the CPU counter sees the
// check.
type outcome struct {
	lat, wait    time.Duration // from due to done, and from due to picked up
	tick0, tick1 int           // site tick before send and after receipt
	size         int
	sum          uint64
	err          error
	refreshErr   error // the document arrived but the base-file refresh after it failed
	full, based  bool  // the response was a full document; the request fetched a base-file
}

// driveResult is one run of requests through a stack.
type driveResult struct {
	outs []outcome
	late time.Duration // largest lag of the schedule itself
	wall time.Duration // first due to last done
	cpu  time.Duration // process user+system CPU over the same interval
	gcs  uint32        // garbage collections over the same interval
}

// drive sends reqs (global indices first, first+1, ...) over conns
// connections. With rate > 0 the stream is open-loop: request i is due
// at start+i/rate, and a connection that is free early sleeps until then;
// latency runs from the due time. With rate == 0 it is closed-loop: each
// connection sends its next request as soon as the previous one is done.
func (s *stack) drive(reqs []request, first, conns int, rate float64) driveResult {
	res := driveResult{outs: make([]outcome, len(reqs))}
	lates := make([]time.Duration, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	gc0 := mem.NumGC
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				now := time.Now()
				due := now
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if d := due.Sub(now); d > 0 {
						time.Sleep(d)
						now = time.Now()
						if l := now.Sub(due); l > lates[c] {
							lates[c] = l
						}
					}
				}
				s.advanceTo(first + i)
				r := reqs[i]
				o := &res.outs[i]
				o.wait = now.Sub(due)
				// A user is one browser: its requests never overlap, so a
				// request for a user already in flight waits its turn.
				s.userMu[r.user].Lock()
				o.tick0 = s.site.Tick()
				var t0 time.Time
				if s.layers != nil {
					t0 = time.Now()
				}
				cl := s.clients[r.user]
				st0 := cl.Stats()
				doc, err := cl.Get(r.path)
				done := time.Now()
				if s.layers != nil {
					s.layers.add(&s.layers.get, done.Sub(t0))
				}
				o.tick1 = s.site.Tick()
				st1 := cl.Stats()
				s.userMu[r.user].Unlock()
				o.full = st1.FullResponses > st0.FullResponses
				o.based = st1.BaseFetches > st0.BaseFetches
				o.lat = done.Sub(due)
				o.err = err
				if err != nil && doc != nil {
					o.err, o.refreshErr = nil, err
				}
				o.size = len(doc)
				o.sum = maphash.Bytes(digestSeed, doc)
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&mem)
	res.gcs = mem.NumGC - gc0
	for _, l := range lates {
		res.late = max(res.late, l)
	}
	return res
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// renderCache memoizes digests of origin renderings. Rendering is
// deterministic in (seed, document, user, tick), so one cache serves every
// stack of a run. Documents of a non-personalized site do not depend on
// the user, so they share entries.
type renderCache struct {
	site *origin.Site
	w    *workload
	m    map[renderKey]digest
}

type renderKey struct {
	url  string
	user int
	tick int
}

type digest struct {
	size int
	sum  uint64
}

func newRenderCache(w *workload, seed int64) *renderCache {
	return &renderCache{site: w.newSite(seed), w: w, m: make(map[renderKey]digest)}
}

func (rc *renderCache) digest(r request, tick int) (digest, error) {
	k := renderKey{url: r.url, user: r.user, tick: tick}
	if !rc.w.site.Personalized {
		k.user = -1
	}
	if d, ok := rc.m[k]; ok {
		return d, nil
	}
	doc, err := rc.site.RenderURL(r.url, rc.w.userFor(r.user), tick)
	if err != nil {
		return digest{}, err
	}
	d := digest{size: len(doc), sum: maphash.Bytes(digestSeed, doc)}
	rc.m[k] = d
	return d, nil
}

// check counts the requests of a drive that failed: returned an error,
// or reconstructed a document that matches the origin's rendering at no
// content tick within the request's lifetime. The first few failures are
// logged.
func (rc *renderCache) check(reqs []request, outs []outcome, log *logger) int {
	failed := 0
	for i, o := range outs {
		ok := o.err == nil
		if ok {
			ok = false
			for t := o.tick0; t <= o.tick1 && !ok; t++ {
				d, err := rc.digest(reqs[i], t)
				ok = err == nil && d == digest{size: o.size, sum: o.sum}
			}
			if !ok {
				log.failure("%s for %s: document matches no origin rendering at ticks %d..%d", reqs[i].path, userName(reqs[i].user), o.tick0, o.tick1)
			}
		} else {
			log.failure("%s for %s: %v", reqs[i].path, userName(reqs[i].user), o.err)
		}
		if !ok {
			failed++
		}
	}
	return failed
}

var cardRE = regexp.MustCompile(`card on file (\d{16})`)

// cardNumbers takes every user's full card-on-file number from the
// origin's own rendering of one document for that user.
func (rc *renderCache) cardNumbers() (map[string]bool, error) {
	cards := make(map[string]bool, rc.w.users)
	url := rc.site.URL(rc.site.Depts()[0].Name, 0)
	for u := 0; u < rc.w.users; u++ {
		doc, err := rc.site.RenderURL(url, userName(u), 0)
		if err != nil {
			return nil, err
		}
		m := cardRE.FindSubmatch(doc)
		if m == nil {
			return nil, fmt.Errorf("no card number in the rendering for %s", userName(u))
		}
		cards[string(m[1])] = true
	}
	return cards, nil
}

var digitsRE = regexp.MustCompile(`\d{16}`)

// checkBases checks every distinct base-file the stack served against the
// users' card numbers. It returns the bases checked and those that leaked
// a card number.
func (s *stack) checkBases(cards map[string]bool, log *logger) (checked, failed int) {
	bases := s.bases.all()
	paths := make([]string, 0, len(bases))
	for p := range bases {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		checked++
		for _, m := range digitsRE.FindAll(bases[p], -1) {
			if cards[string(m)] {
				failed++
				log.failure("base-file %s contains a user's card number", p)
				break
			}
		}
	}
	return checked, failed
}

// replayResult is what the replay pass measured over its timed requests.
type replayResult struct {
	attempted, failed int
	refreshErrs       int // base-file refreshes that failed after a good document
	counts            map[string]float64
	wireBytesPerReq   float64
	storageKB         float64
}

// replay sends reqs one at a time over one connection, quiesces the
// engine after each, and sets the engine clock to each request's
// scheduled time, so every size it reads repeats exactly for a seed.
// Requests before warm are the warm-up; the counts cover the rest.
func (s *stack) replay(reqs []request, warm int, clock *vclock, log *logger) replayResult {
	var res replayResult
	step := time.Duration(float64(time.Second) / s.w.rate)
	var before snapshot
	for i, r := range reqs {
		if i == warm {
			before = s.snapshot()
		}
		s.advanceTo(i)
		clock.set(time.Duration(i) * step)
		doc, err := s.clients[r.user].Get(r.path)
		s.eng.Quiesce()
		res.attempted++
		tick := s.site.Tick()
		if err != nil && doc != nil {
			res.refreshErrs++
		} else if err != nil {
			log.failure("replay %s for %s: %v", r.path, userName(r.user), err)
			res.failed++
			continue
		}
		want, err := s.site.RenderURL(r.url, s.w.userFor(r.user), tick)
		if err != nil || !bytes.Equal(doc, want) {
			log.failure("replay %s for %s: document differs from the origin's rendering at tick %d", r.path, userName(r.user), tick)
			res.failed++
			continue
		}
		if b := s.w.memBudget; b > 0 {
			if got := s.eng.StoreStats().Resident.Total; got > b {
				log.failure("replay step %d: resident class state %d B exceeds the %d B budget", i, got, b)
				res.failed++
			}
		}
	}
	after := s.snapshot()
	n := len(reqs) - warm
	res.counts = after.countsSince(before, n)
	res.wireBytesPerReq = res.counts["deltaclient.payload_bytes_per_req"] + res.counts["deltaclient.base_bytes_per_req"]
	res.storageKB = float64(after.store.Resident.Total) / 1024

	// Each workload must exercise the layers it exists for.
	for _, c := range []struct {
		need bool
		name string
	}{
		{s.w.needFaultIns, "spill.faultins"},
		{s.w.needMemoHits, "deltacache.hit_ratio"},
	} {
		if !c.need {
			continue
		}
		res.attempted++
		if res.counts[c.name] <= 0 {
			log.failure("replay did not exercise its layer: %s = %v", c.name, res.counts[c.name])
			res.failed++
		}
	}
	return res
}

// vclock is the engine clock of the replay pass: the scheduled time of
// the request being replayed.
type vclock struct{ off atomic.Int64 }

var vclockEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func (c *vclock) now() time.Time      { return vclockEpoch.Add(time.Duration(c.off.Load())) }
func (c *vclock) set(d time.Duration) { c.off.Store(int64(d)) }
