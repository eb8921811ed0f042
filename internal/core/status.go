package core

import "uavres/internal/obs"

// Status is one point-in-time view of a running campaign, the payload of
// cmd/campaign's -status-addr JSON and SSE endpoints. Every dynamic field
// is derived from the shared obs.Registry the Runner already updates, so
// producing a snapshot costs a handful of atomic loads and never touches
// the worker pool.
type Status struct {
	SpecHash   string `json:"spec_hash,omitempty"`
	RunnerMode string `json:"runner_mode"`
	RNGPolicy  string `json:"rng_policy,omitempty"`
	BatchWidth int    `json:"batch_width"`
	Workers    int    `json:"workers"`

	CasesTotal  int   `json:"cases_total"`
	CasesDone   int64 `json:"cases_done"`
	CasesCached int64 `json:"cases_cached"`

	// CacheHits/CacheMisses count result-store lookups (Runner.Cache);
	// CacheHitRatio is hits/(hits+misses), 0 until the first lookup.
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	Completed int64 `json:"completed"`
	Crashed   int64 `json:"crashed"`
	Failsafed int64 `json:"failsafed"`
	TimedOut  int64 `json:"timed_out"`
	Errors    int64 `json:"errors"`

	ActiveWorkers int   `json:"active_workers"`
	ActiveBatches int   `json:"active_batches"`
	TraceDropped  int64 `json:"trace_dropped"`

	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	MeanCaseSeconds float64 `json:"mean_case_seconds"`
	ETASeconds      float64 `json:"eta_seconds"`
	Done            bool    `json:"done"`
}

// StatusConfig carries the static facts a StatusSource reports alongside
// the live counters.
type StatusConfig struct {
	// Total is the campaign's case count, cache hits included.
	Total      int
	SpecHash   string
	RNGPolicy  string
	RunnerMode string
	BatchWidth int
	Workers    int
	// Clock supplies wall time for elapsed/ETA; nil means obs.Stopped()
	// (elapsed stays zero, ETA still derives from case_seconds).
	Clock obs.Clock
}

// StatusSource resolves the campaign instruments once and renders Status
// snapshots on demand. It must share the registry the Runner observes;
// registration is idempotent, so construction order does not matter.
type StatusSource struct {
	cfg   StatusConfig
	start float64

	cases   *obs.Counter
	errors  *obs.Counter
	dropped *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	completed *obs.Counter
	crashed   *obs.Counter
	failsafed *obs.Counter
	timedOut  *obs.Counter

	activeWorkers *obs.Gauge
	activeBatches *obs.Gauge
	caseSeconds   *obs.Histogram
}

// NewStatusSource builds a source over reg. The clock is read once here
// to anchor ElapsedSeconds.
func NewStatusSource(reg *obs.Registry, cfg StatusConfig) *StatusSource {
	if cfg.Clock == nil {
		cfg.Clock = obs.Stopped()
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &StatusSource{
		cfg:   cfg,
		start: cfg.Clock(),

		cases:   reg.Counter("campaign_cases_total"),
		errors:  reg.Counter("campaign_case_errors_total"),
		dropped: reg.Counter("campaign_trace_dropped_total"),

		cacheHits:   reg.Counter("campaign_cache_hits_total"),
		cacheMisses: reg.Counter("campaign_cache_misses_total"),

		completed: reg.Counter("campaign_outcome_completed_total"),
		crashed:   reg.Counter("campaign_outcome_crash_total"),
		failsafed: reg.Counter("campaign_outcome_failsafe_total"),
		timedOut:  reg.Counter("campaign_outcome_timeout_total"),

		activeWorkers: reg.Gauge("campaign_active_workers"),
		activeBatches: reg.Gauge("campaign_active_batches"),
		caseSeconds:   reg.Histogram("campaign_case_seconds", caseSecondsBounds),
	}
}

// Snapshot renders the current status. ETA assumes the remaining cases
// cost the observed mean case-seconds each, spread across the worker
// pool — the same wall-time split the case_seconds histogram records —
// and reads zero until the first case lands.
func (s *StatusSource) Snapshot() Status {
	run := s.cases.Value()
	// Cache hits are finished cases that never ran: done folds them in.
	cached := s.cacheHits.Value()
	done := run + cached
	st := Status{
		SpecHash:   s.cfg.SpecHash,
		RunnerMode: s.cfg.RunnerMode,
		RNGPolicy:  s.cfg.RNGPolicy,
		BatchWidth: s.cfg.BatchWidth,
		Workers:    s.cfg.Workers,

		CasesTotal:  s.cfg.Total,
		CasesDone:   done,
		CasesCached: cached,

		Completed: s.completed.Value(),
		Crashed:   s.crashed.Value(),
		Failsafed: s.failsafed.Value(),
		TimedOut:  s.timedOut.Value(),
		Errors:    s.errors.Value(),

		CacheHits:   cached,
		CacheMisses: s.cacheMisses.Value(),

		ActiveWorkers: int(s.activeWorkers.Value()),
		ActiveBatches: int(s.activeBatches.Value()),
		TraceDropped:  s.dropped.Value(),

		ElapsedSeconds: s.cfg.Clock() - s.start,
		Done:           s.cfg.Total > 0 && done >= int64(s.cfg.Total),
	}
	if n := s.caseSeconds.Count(); n > 0 {
		st.MeanCaseSeconds = s.caseSeconds.Sum() / float64(n)
	}
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		st.CacheHitRatio = float64(st.CacheHits) / float64(lookups)
	}
	if remaining := int64(s.cfg.Total) - done; remaining > 0 && st.MeanCaseSeconds > 0 {
		st.ETASeconds = float64(remaining) * st.MeanCaseSeconds / float64(s.cfg.Workers)
	}
	return st
}
