package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"uavres/internal/core"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/sim"
	"uavres/internal/spec"
	"uavres/internal/store"
)

// errBadSpec marks a spec that parses but cannot run: a client error.
var errBadSpec = errors.New("campaignd: bad spec")

// server is the campaign front: it owns the result store and the
// one-at-a-time campaign slot, and hands each campaign to a core.Runner.
type server struct {
	st     *store.Store
	outDir string
	quiet  bool
	clock  obs.Clock

	// reg is the daemon-lifetime registry (/metrics): store gauges plus
	// cross-campaign totals. Each campaign gets its own registry for the
	// /status source so ratios reset per run.
	reg       *obs.Registry
	campaigns *obs.Counter

	runMu sync.Mutex // serializes campaigns: one at a time

	mu  sync.Mutex
	cur *core.StatusSource // most recent campaign's status source
	seq int
}

func newServer(st *store.Store, outDir string, quiet bool, clock obs.Clock) *server {
	reg := obs.NewRegistry()
	st.RegisterMetrics(reg)
	return &server{
		st: st, outDir: outDir, quiet: quiet, clock: clock,
		reg:       reg,
		campaigns: reg.Counter("campaignd_campaigns_total"),
	}
}

// mux builds the HTTP surface: /run (POST a CampaignSpec, synchronous),
// /status (current/last campaign snapshot), /store/stats, plus the
// standard /metrics + pprof endpoints.
func (s *server) mux() *http.ServeMux {
	mux := obs.MetricsMux(s.reg)
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		src := s.cur
		s.mu.Unlock()
		var st core.Status
		if src != nil {
			st = src.Snapshot()
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("/store/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.st.Stats())
	})
	return mux
}

// runSummary is the synchronous /run response: what ran, what the store
// saved the campaign, and where the merged results landed.
type runSummary struct {
	Name          string  `json:"name,omitempty"`
	SpecHash      string  `json:"spec_hash"`
	Cases         int     `json:"cases"`
	CacheHits     int     `json:"cache_hits"`
	CacheMisses   int     `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	Failures      int     `json:"failures"`
	ResultsPath   string  `json:"results_path"`
	WallSeconds   float64 `json:"wall_seconds"`
	StoreObjects  int     `json:"store_objects"`
	StoreBytes    int64   `json:"store_bytes"`
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a CampaignSpec JSON body", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cs, err := spec.Parse(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.runMu.TryLock() {
		http.Error(w, "a campaign is already running", http.StatusConflict)
		return
	}
	defer s.runMu.Unlock()
	// The campaign stops scheduling cases once the client goes away.
	sum, err := s.runCampaign(r.Context(), cs)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, errBadSpec) {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// runCampaign executes one spec on an in-process core.Runner whose
// cache is the store: hits replay from it, misses simulate and are
// stored back, and every result streams into one results file.
func (s *server) runCampaign(ctx context.Context, cs spec.CampaignSpec) (runSummary, error) {
	start := s.clock()
	s.campaigns.Add(1)

	cases, err := cs.Compile(mission.Valencia())
	if err != nil {
		return runSummary{}, fmt.Errorf("%w: %v", errBadSpec, err)
	}
	if len(cases) == 0 {
		return runSummary{}, fmt.Errorf("%w: it selects no cases", errBadSpec)
	}
	// Same override layering as cmd/campaign with default flags, so
	// fingerprints — and therefore store hits — agree across entry points.
	cfg := sim.DefaultConfig()
	cs.Overrides.Apply(&cfg)
	spec.AttachFingerprints(cases, cfg)

	// Per-campaign registry + status source: /status reports this run's
	// counters and cache ratio from zero.
	creg := obs.NewRegistry()
	runner := core.NewRunner()
	runner.Config = cfg
	runner.Cache = s.st
	runner.Obs = creg
	runner.Clock = s.clock
	hdr := runner.ResultsHeader(cs.Hash())
	src := core.NewStatusSource(creg, core.StatusConfig{
		Total:      len(cases),
		SpecHash:   hdr.SpecHash,
		RNGPolicy:  hdr.RNGPolicy,
		RunnerMode: hdr.RunnerMode,
		BatchWidth: hdr.BatchWidth,
		Workers:    hdr.Workers,
		Clock:      s.clock,
	})
	s.mu.Lock()
	s.cur = src
	s.seq++
	seq := s.seq
	s.mu.Unlock()

	// One results file per run, named by sequence + spec hash so a demo
	// can bit-compare it against a direct cmd/campaign run.
	path := filepath.Join(s.outDir, fmt.Sprintf("run-%03d-%s.json", seq, cs.Hash()))
	stream, err := core.NewResultsFileWriter(path)
	if err != nil {
		return runSummary{}, err
	}
	streamErr := stream.WriteHeader(hdr)
	runner.OnResult = func(res core.CaseResult) {
		if err := stream.Write(res); err != nil && streamErr == nil {
			streamErr = err
		}
	}
	results := runner.RunAll(ctx, cases)
	if err := stream.Close(); streamErr == nil {
		streamErr = err
	}
	if streamErr != nil {
		return runSummary{}, fmt.Errorf("campaignd: writing results: %w", streamErr)
	}
	if err := s.st.Err(); err != nil {
		// The campaign itself succeeded; a store persistence failure only
		// costs future hits. Report it without failing the run.
		fmt.Fprintf(os.Stderr, "campaignd: store persistence degraded: %v\n", err)
	}

	var failures int
	for _, res := range results {
		if res.Err != "" {
			failures++
		}
	}
	st := s.st.Stats()
	sum := runSummary{
		Name:         cs.Name,
		SpecHash:     cs.Hash(),
		Cases:        len(cases),
		CacheHits:    int(creg.Counter("campaign_cache_hits_total").Value()),
		CacheMisses:  int(creg.Counter("campaign_cache_misses_total").Value()),
		Failures:     failures,
		ResultsPath:  path,
		WallSeconds:  s.clock() - start,
		StoreObjects: st.Objects,
		StoreBytes:   st.Bytes,
	}
	sum.CacheHitRatio = float64(sum.CacheHits) / float64(len(cases))
	if !s.quiet {
		fmt.Printf("campaignd: run %d done: %d/%d from cache (%.0f%%), %d failures, %.2fs → %s\n",
			seq, sum.CacheHits, sum.Cases, 100*sum.CacheHitRatio, failures, sum.WallSeconds, path)
	}
	return sum, nil
}
