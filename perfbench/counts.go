package main

import (
	"cbde/internal/classify"
	"cbde/internal/core"
	"cbde/internal/deltaclient"
	"cbde/internal/store"
)

// snapshot is every public stats function of the stack at one instant.
type snapshot struct {
	eng        core.Stats
	memo       core.DeltaCacheStats
	graph      core.GraphStats
	store      store.Stats
	spill      store.TierStats
	group      classify.Stats
	client     deltaclient.Stats
	encodeRuns int64
}

func (s *stack) snapshot() snapshot {
	g, _ := s.eng.GroupingStats()
	return snapshot{
		eng:        s.eng.Stats(),
		memo:       s.eng.DeltaCacheStats(),
		graph:      s.eng.GraphStats(),
		store:      s.eng.StoreStats(),
		spill:      s.eng.SpillStats(),
		group:      g,
		client:     s.clientTotals(),
		encodeRuns: s.eng.Metrics().Counter("encode.runs").Value(),
	}
}

// countsSince gives the replay's per-layer counts over the n requests
// between b and a. Sizes (the _kb metrics) are a's resident state.
func (a snapshot) countsSince(b snapshot, n int) map[string]float64 {
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	perReq := func(v int64) float64 { return ratio(v, int64(n)) }
	kb := func(v int64) float64 { return float64(v) / 1024 }
	consults := (a.memo.Hits - b.memo.Hits) + (a.memo.Misses - b.memo.Misses) + (a.memo.Coalesced - b.memo.Coalesced)
	return map[string]float64{
		"core.full_share":                   ratio(a.eng.FullResponses-b.eng.FullResponses, a.eng.Requests-b.eng.Requests),
		"core.encode_runs":                  float64(a.encodeRuns - b.encodeRuns),
		"basefile.group_rebases":            float64(a.eng.GroupRebases - b.eng.GroupRebases),
		"basefile.basic_rebases":            float64(a.eng.BasicRebases - b.eng.BasicRebases),
		"anonymize.completed":               float64(a.eng.AnonCompleted - b.eng.AnonCompleted),
		"classify.probes_per_url":           a.group.ProbesPerURL,
		"deltacache.hit_ratio":              ratio(a.memo.Hits-b.memo.Hits, consults),
		"graph.direct":                      float64(a.graph.Direct - b.graph.Direct),
		"graph.composed":                    float64(a.graph.Composed - b.graph.Composed),
		"graph.fallback_full":               float64(a.graph.FallbackFull - b.graph.FallbackFull),
		"store.prunes":                      float64(a.store.Prunes - b.store.Prunes),
		"store.evictions":                   float64(a.store.Evictions - b.store.Evictions),
		"store.base_kb":                     kb(a.store.Resident.BaseBytes),
		"store.cand_kb":                     kb(a.store.Resident.CandBytes),
		"store.index_kb":                    kb(a.store.Resident.IndexBytes),
		"store.delta_kb":                    kb(a.store.Resident.DeltaBytes),
		"store.edge_kb":                     kb(a.store.Resident.EdgeBytes),
		"spill.spills":                      float64(a.spill.Spills - b.spill.Spills),
		"spill.faultins":                    float64(a.spill.FaultIns - b.spill.FaultIns),
		"spill.disk_kb":                     kb(a.spill.DiskBytes),
		"deltaclient.payload_bytes_per_req": perReq(a.client.PayloadBytes - b.client.PayloadBytes),
		"deltaclient.base_bytes_per_req":    perReq(a.client.BaseBytes - b.client.BaseBytes),
	}
}
