package core

import (
	"context"
	"reflect"
	"testing"

	"uavres/internal/obs"
)

// cachedRunner builds the small runner the cache tests share.
func cachedRunner(reg *obs.Registry) *Runner {
	r := NewRunner()
	r.Missions = shortScenario()
	r.Workers = 2
	r.Checkpoint = true
	r.Batch = true
	r.Obs = reg
	return r
}

// TestRunnerCacheWarmRunIsAllHits: a cold run populates the cache; a
// warm run over the same cases replays everything — same results, zero
// fresh simulations, counters telling the story.
func TestRunnerCacheWarmRunIsAllHits(t *testing.T) {
	cases := hashedCases()
	cache := NewMemoryCache(nil)

	cold := obs.NewRegistry()
	r := cachedRunner(cold)
	r.Cache = cache
	coldResults := r.RunAll(context.Background(), cases)
	if got := cold.Counter("campaign_cache_misses_total").Value(); got != int64(len(cases)) {
		t.Fatalf("cold misses = %d, want %d", got, len(cases))
	}
	if got := cold.Counter("campaign_cache_hits_total").Value(); got != 0 {
		t.Fatalf("cold hits = %d, want 0", got)
	}

	warm := obs.NewRegistry()
	r2 := cachedRunner(warm)
	r2.Cache = cache
	var progress [][2]int
	r2.Progress = func(done, total int) { progress = append(progress, [2]int{done, total}) }
	var streamed []string
	r2.OnResult = func(res CaseResult) { streamed = append(streamed, res.Case.ID) }
	warmResults := r2.RunAll(context.Background(), cases)

	if got := warm.Counter("campaign_cache_hits_total").Value(); got != int64(len(cases)) {
		t.Errorf("warm hits = %d, want %d", got, len(cases))
	}
	if got := warm.Counter("campaign_cache_misses_total").Value(); got != 0 {
		t.Errorf("warm misses = %d", got)
	}
	if got := warm.Counter("campaign_cases_total").Value(); got != 0 {
		t.Errorf("warm run simulated %d cases, want 0", got)
	}
	// Hits count as done cases for the status arithmetic.
	if got := warm.Counter("campaign_cases_cached_total").Value(); got != int64(len(cases)) {
		t.Errorf("warm cases_cached = %d, want %d", got, len(cases))
	}

	if !reflect.DeepEqual(coldResults, warmResults) {
		t.Errorf("warm results differ from cold:\ncold %+v\nwarm %+v", coldResults, warmResults)
	}
	// Streaming and progress cover the hits, in input order, over the
	// full campaign total.
	if len(streamed) != len(cases) {
		t.Fatalf("OnResult saw %d results, want %d", len(streamed), len(cases))
	}
	for i, c := range cases {
		if streamed[i] != c.ID {
			t.Errorf("streamed[%d] = %s, want %s", i, streamed[i], c.ID)
		}
	}
	last := progress[len(progress)-1]
	if last != [2]int{len(cases), len(cases)} {
		t.Errorf("final progress = %v, want [%d %d]", last, len(cases), len(cases))
	}
}

// TestRunnerCachePartialHits: a cache holding a subset replays exactly
// that subset and simulates the complement, with progress spanning both.
func TestRunnerCachePartialHits(t *testing.T) {
	cases := hashedCases()

	// Seed the cache by running only the first two cases cold.
	cache := NewMemoryCache(nil)
	seed := cachedRunner(obs.NewRegistry())
	seed.Cache = cache
	seed.RunAll(context.Background(), cases[:2])

	reg := obs.NewRegistry()
	r := cachedRunner(reg)
	r.Cache = cache
	var progress [][2]int
	r.Progress = func(done, total int) { progress = append(progress, [2]int{done, total}) }
	results := r.RunAll(context.Background(), cases)

	if got := reg.Counter("campaign_cache_hits_total").Value(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := reg.Counter("campaign_cache_misses_total").Value(); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := reg.Counter("campaign_cases_total").Value(); got != 2 {
		t.Errorf("simulated %d cases, want 2", got)
	}
	if len(results) != len(cases) {
		t.Fatalf("got %d results, want %d", len(results), len(cases))
	}
	for i, res := range results {
		if res.Case.ID != cases[i].ID {
			t.Errorf("results[%d] is %s, want %s (order must follow input)", i, res.Case.ID, cases[i].ID)
		}
	}
	// Every progress call is monotonic over the whole campaign, ending
	// at (4, 4).
	prev := 0
	for _, p := range progress {
		if p[1] != len(cases) || p[0] <= prev {
			t.Fatalf("progress sequence broken: %v", progress)
		}
		prev = p[0]
	}
	if prev != len(cases) {
		t.Errorf("progress ended at %d, want %d", prev, len(cases))
	}
}

// TestRunnerCacheRejectsMismatches: unusable entries never replay:
// wrong ID for the hash, errored results (a resumed file's cancelled
// cases), and hashless cases (files written before fingerprints).
func TestRunnerCacheRejectsMismatches(t *testing.T) {
	cases := hashedCases()
	prior := []CaseResult{
		{Case: Case{ID: "imposter", Hash: cases[0].Hash}},            // ID mismatch
		{Case: Case{ID: cases[1].ID, Hash: cases[1].Hash}, Err: "x"}, // errored
	}
	cache := NewMemoryCache(prior)
	hashless := cases[2]
	hashless.Hash = ""

	reg := obs.NewRegistry()
	r := cachedRunner(reg)
	r.Cache = cache
	r.RunAll(context.Background(), []Case{cases[0], cases[1], hashless})

	if got := reg.Counter("campaign_cache_hits_total").Value(); got != 0 {
		t.Errorf("hits = %d, want 0 (all entries unusable)", got)
	}
	if got := reg.Counter("campaign_cases_total").Value(); got != 3 {
		t.Errorf("simulated %d cases, want 3", got)
	}
}

// TestRunnerCacheHitSpans: with tracing on, each replayed case gets a
// closed cache-hit case span so span accounting matches the results file.
func TestRunnerCacheHitSpans(t *testing.T) {
	cases := hashedCases()
	cache := NewMemoryCache(nil)
	seed := cachedRunner(obs.NewRegistry())
	seed.Cache = cache
	seed.RunAll(context.Background(), cases)

	r := cachedRunner(obs.NewRegistry())
	r.Cache = cache
	r.Trace = obs.NewTracer(nil, 16)
	r.RunAll(context.Background(), cases)

	hits := 0
	for _, sp := range r.Trace.Spans() {
		if sp.Name != "case" || sp.Open {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "cache_hit" && a.Str == "true" {
				hits++
			}
		}
	}
	if hits != len(cases) {
		t.Errorf("cache-hit case spans = %d, want %d", hits, len(cases))
	}
}

// storeRecorder is a ResultCache that remembers every Store offer.
type storeRecorder struct {
	ResultCache
	offered []CaseResult
}

func (c *storeRecorder) Store(res CaseResult) {
	c.offered = append(c.offered, res)
	c.ResultCache.Store(res)
}

// TestRunnerCacheSkipsErroredResults: a fresh result that recorded an
// execution error (here an unknown mission) is returned and counted but
// never offered to the cache, so no later run can replay it.
func TestRunnerCacheSkipsErroredResults(t *testing.T) {
	good := hashedCases()[0]
	bad := Case{ID: "bad", MissionID: 99, Seed: 1, Hash: "h-bad"}
	cache := &storeRecorder{ResultCache: NewMemoryCache(nil)}
	reg := obs.NewRegistry()
	r := cachedRunner(reg)
	r.Cache = cache
	results := r.RunAll(context.Background(), []Case{good, bad})

	if results[0].Err != "" || results[1].Err == "" {
		t.Fatalf("want good case clean and bad case errored: %+v", results)
	}
	if got := reg.Counter("campaign_case_errors_total").Value(); got != 1 {
		t.Errorf("case errors = %d, want 1", got)
	}
	if len(cache.offered) != 1 || cache.offered[0].Case.ID != good.ID {
		t.Errorf("cache was offered %+v, want only %s", cache.offered, good.ID)
	}
}
