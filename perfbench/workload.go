package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cbde/internal/origin"
)

// workload is one traffic mix: the synthetic site, the user population,
// the shape of the request stream, and the few engine settings that differ
// from cmd/deltaserver's defaults. README.md gives the reasons for each.
type workload struct {
	name string
	site origin.Config

	users      int     // distinct users (one delta client each)
	userSkew   float64 // Zipf exponent over users
	docSkew    float64 // Zipf exponent over documents
	docOffset  float64 // Zipf offset over documents (1 = plain Zipf; larger flattens the head)
	churnEvery int     // requests per content tick of the origin
	phaseLen   int     // diurnal: requests per phase of one department half; 0 = no phases
	lagMean    float64 // mean geometric base-refresh lag in versions; 0 = refresh to latest

	rate float64 // timed requests per second in the served pass

	rebaseTimeout time.Duration // selector group-rebase interval; 0 = cmd default (10m)
	graphDepth    int           // version-graph depth; 0 = cmd default
	memBudget     int64         // class-storage budget in bytes; 0 = unbudgeted
	spill         bool          // spill evicted classes to a temp directory

	// The layers the replay must show as exercised.
	needFaultIns, needMemoHits bool
}

// depts is one department per name, each with the given number of items.
func depts(items int, names ...string) []origin.Dept {
	out := make([]origin.Dept, len(names))
	for i, name := range names {
		out[i] = origin.Dept{Name: name, Items: items}
	}
	return out
}

// workloads returns the benchmark's traffic mixes by name.
func workloads() map[string]*workload {
	ws := []*workload{
		{
			name: "personalized-churn",
			site: origin.Config{
				Host:         "www.portal.example",
				Style:        origin.StylePathHint,
				Depts:        depts(40, "news", "sports", "finance"),
				Personalized: true,
			},
			users: 200, userSkew: 1.1, docSkew: 1.1, docOffset: 20,
			churnEvery: 40,
			rate:       300,
		},
		{
			name: "shared-hot",
			site: origin.Config{
				Host:  "www.catalog.example",
				Style: origin.StyleQueryHint,
				Depts: depts(30, "laptops", "desktops", "phones", "cameras", "printers", "monitors", "tablets", "audio"),
			},
			users: 200, userSkew: 1.1, docSkew: 1.4, docOffset: 1,
			churnEvery: 300, lagMean: 1,
			rate:          400,
			rebaseTimeout: time.Second, graphDepth: 4,
			needMemoHits: true,
		},
		{
			name: "diurnal-spill",
			site: origin.Config{
				Host:         "www.shop.example",
				Style:        origin.StylePathHint,
				Depts:        depts(30, "books", "music", "garden", "toys", "tools", "games", "sport", "food"),
				Personalized: true,
			},
			users: 200, userSkew: 1.1, docSkew: 1.1, docOffset: 20,
			churnEvery: 40, phaseLen: 700,
			rate:      400,
			memBudget: 3 << 20, spill: true,
			needFaultIns: true,
		},
	}
	m := make(map[string]*workload, len(ws))
	for _, w := range ws {
		m[w.name] = w
	}
	return m
}

// request is one generated document request.
type request struct {
	path string // path and query, as the client sends it
	url  string // host, path and query, as origin.Site.RenderURL takes it
	user int
}

// userName is the identity user u sends.
func userName(u int) string { return fmt.Sprintf("user-%03d", u) }

// userFor is the user a rendering of user u's request is for: nobody on a
// site that is not personalized.
func (w *workload) userFor(u int) string {
	if !w.site.Personalized {
		return ""
	}
	return userName(u)
}

// newSite is the workload's origin site for a seed.
func (w *workload) newSite(seed int64) *origin.Site {
	cfg := w.site
	cfg.Seed = uint64(seed)
	return origin.NewSite(cfg)
}

// warmup is the number of warm-up requests: every user visits every
// department once, so the timed stream starts from a stack where each
// user holds the base-files of the classes it uses.
func (w *workload) warmup() int { return w.users * len(w.site.Depts) }

// stream generates the warm-up requests followed by n timed ones from
// seed: Zipf-popular users and documents, and for diurnal workloads
// alternating department halves. The same seed gives the same stream.
func (w *workload) stream(seed int64, n int) []request {
	site := w.newSite(seed)
	rng := rand.New(rand.NewSource(seed))
	// The user draw's offset of 10 flattens the head: the busiest user
	// sends a few percent of the traffic, not a fifth of it.
	users := rand.NewZipf(rng, w.userSkew, 10, uint64(w.users-1))

	// Departments split into halves (one half unless the workload has
	// phases). Popularity rank r of a half falls to department r mod d of
	// that half, so every department gets the same share of each
	// popularity level whatever the seed; which item holds a rank is a
	// seeded permutation within its department.
	ds := site.Depts()
	half := func(i int) int {
		if w.phaseLen > 0 && i >= len(ds)/2 {
			return 1
		}
		return 0
	}
	var members [2][]int // department indexes of each half
	perms := make([][]int, len(ds))
	for i, d := range ds {
		members[half(i)] = append(members[half(i)], i)
		perms[i] = rng.Perm(d.Items)
	}
	var ranks [2]*rand.Zipf
	for h, m := range members {
		if len(m) > 0 {
			ranks[h] = rand.NewZipf(rng, w.docSkew, w.docOffset, uint64(len(m)*ds[m[0]].Items-1))
		}
	}
	req := func(dept, rank, user int) request {
		rank = min(rank, ds[dept].Items-1)
		url := site.URL(ds[dept].Name, perms[dept][rank])
		return request{path: strings.TrimPrefix(url, site.Host()), url: url, user: user}
	}

	warm := w.warmup()
	out := make([]request, 0, warm+n)
	for i := 0; i < warm; i++ {
		// Round-robin over users, each round shifting which department a
		// user visits, so neighbouring requests are different users. The
		// first visit to each department is to its least popular item, so
		// every class starts from a cold base-file and the selector moves
		// it to a popular document early in the warm-up, whatever the seed.
		u, round := i%w.users, i/w.users
		dept := (u + round) % len(ds)
		rank := ds[dept].Items - 1
		if i >= len(ds) {
			rank = int(ranks[half(dept)].Uint64()) / len(members[half(dept)])
		}
		out = append(out, req(dept, rank, u))
	}
	for t := 0; t < n; t++ {
		h := 0
		if w.phaseLen > 0 {
			h = (t / w.phaseLen) % 2
		}
		m := members[h]
		r := int(ranks[h].Uint64())
		out = append(out, req(m[r%len(m)], r/len(m), int(users.Uint64())))
	}
	return out
}

// tickAt is the origin's content tick when request i (counted from the
// first warm-up request) is due.
func (w *workload) tickAt(i int) int { return i / w.churnEvery }

// lagFor is the deterministic refresh lag for user u when the server
// announces version latest: a geometric draw with mean w.lagMean from a
// hash of (seed, user, latest), so a run needs no shared random state
// between connections and the replay repeats it exactly.
func (w *workload) lagFor(seed int64, u, latest int) int {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(u)*0xC2B2AE3D27D4EB4F ^ uint64(latest)*0x165667B19E3779F9
	p := 1 / (1 + w.lagMean)
	n := 0
	for n < 64 {
		h = splitmix(h)
		if float64(h>>11)/(1<<53) < p {
			break
		}
		n++
	}
	return n
}

// splitmix is one step of the SplitMix64 generator.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
