package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tiny shrinks a workload so both passes finish in about a second: fewer
// users (so a shorter warm-up and fewer memoized deltas, hence a smaller
// memory budget) and shorter diurnal phases, same site.
func tiny(w *workload) *workload {
	t := *w
	t.users = 40
	if t.memBudget > 0 {
		t.memBudget = 1 << 20
	}
	if t.phaseLen > 0 {
		t.phaseLen = 100
	}
	return &t
}

// testWriter sends the benchmark's log lines to the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// replayOnce boots a fresh stack and replays the seed's stream on it.
func replayOnce(t *testing.T, w *workload, seed int64, n int) replayResult {
	t.Helper()
	clock := &vclock{}
	s, err := boot(w, seed, bootOpts{conns: 1, workDir: t.TempDir(), now: clock.now, syncAdmit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	return s.replay(w.stream(seed, n), w.warmup(), clock, &logger{w: testWriter{t}})
}

// TestReplayRepeats replays one seed twice in one process: every size and
// count the replay reports must repeat exactly.
func TestReplayRepeats(t *testing.T) {
	for name, w := range workloads() {
		t.Run(name, func(t *testing.T) {
			w := tiny(w)
			a := replayOnce(t, w, 3, 300)
			b := replayOnce(t, w, 3, 300)
			if a.failed != 0 || b.failed != 0 {
				t.Fatalf("replay failed %d and %d of %d operations", a.failed, b.failed, a.attempted)
			}
			if a.wireBytesPerReq != b.wireBytesPerReq || a.storageKB != b.storageKB {
				t.Errorf("wire %v vs %v B/req, storage %v vs %v KiB", a.wireBytesPerReq, b.wireBytesPerReq, a.storageKB, b.storageKB)
			}
			for k, v := range a.counts {
				if b.counts[k] != v {
					t.Errorf("%s: %v vs %v", k, v, b.counts[k])
				}
			}
		})
	}
}

// TestWorkloadsTiny runs every workload at a tiny size through the served
// and replay passes, and through the traced run, and checks that nothing
// failed and that every metric BENCHMARK.json names is reported.
func TestWorkloadsTiny(t *testing.T) {
	for name, w := range workloads() {
		t.Run(name, func(t *testing.T) {
			w := tiny(w)
			for _, trace := range []bool{false, true} {
				cfg := config{
					w: w, seed: 3, seconds: 200 / w.rate, trace: trace, rate: w.rate,
					conns: 2, setups: 1, workDir: t.TempDir(), log: &logger{w: testWriter{t}},
				}
				res, err := bench(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Errorf("trace=%v: %d of %d operations failed", trace, res.failed, res.attempted)
				}
				for _, m := range declaredMetrics(t, trace) {
					if _, ok := res.metrics[m]; !ok {
						t.Errorf("trace=%v: metric %s not reported", trace, m)
					}
				}
				if len(res.metrics) != len(declaredMetrics(t, trace)) {
					t.Errorf("trace=%v: reported %d metrics, BENCHMARK.json declares %d", trace, len(res.metrics), len(declaredMetrics(t, trace)))
				}
			}
		})
	}
}

// declaredMetrics reads the metric names BENCHMARK.json declares for a
// traced or an untraced run.
func declaredMetrics(t *testing.T, trace bool) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names
}
