package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/physics"
	"uavres/internal/sim"
)

// Runner executes campaign cases over a worker pool. Each case is an
// independent, deterministic simulation, so the pool scales linearly.
type Runner struct {
	// Config is the per-run simulation configuration (the Seed field is
	// overridden per case).
	Config sim.Config
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Missions indexes the scenario by mission ID; nil means the
	// Valencia scenario.
	Missions []mission.Mission
	// Progress, if non-nil, is called after every completed case with
	// (done, total). Calls are serialized.
	Progress func(done, total int)
	// OnResult, if non-nil, receives every finished case's FULL result in
	// completion order; calls are serialized (same lock as Progress). When
	// set, the runner strips the bulky per-case payloads (Trajectory,
	// Diagnostics) from the results slice it retains and returns, so a
	// streaming consumer bounds resident memory at O(workers) in-flight
	// cases instead of O(cases) — the aggregate tables only read the flat
	// outcome fields that remain.
	OnResult func(CaseResult)
	// Checkpoint enables checkpoint-and-fork execution: the faulted cases
	// sharing a mission, environment seed, airframe, injection family and
	// injection scope form one chain, a single fault-free flight
	// snapshotted at each of their injection starts; every case forks from
	// the snapshot at its own start, bit-identical to a straight-through
	// run (sim.TestForkFromChainBitIdentical). With the paper's plan, the
	// 84 faulty cases of each mission share one 90-second prefix. The
	// zero-value Runner runs every case straight through.
	Checkpoint bool
	// Batch additionally steps the forks at each chain start in lockstep
	// (sim.Batch): one donor vehicle draws the shared environment noise
	// once per tick and every fork composes it, eliminating the dominant
	// per-fork NormFloat64 cost. Outcomes stay bit-identical to the scalar
	// forked path (sim.TestBatchBitIdentical). Requires Checkpoint; a
	// start with a single case forks scalar, and cases outside any chain
	// (gold runs, a lone case of its key) run straight.
	Batch bool
	// BatchWidth caps how many forks share one lockstep batch; <= 0 means
	// DefaultBatchWidth. Wider batches amortize the donor's draw cost over
	// more forks at the price of more resident vehicles per worker.
	BatchWidth int
	// Obs, if non-nil, receives campaign-level metrics: case and outcome
	// counters, fork/prefix accounting, and per-case/per-stage wall-clock
	// timing. Nil disables instrumentation entirely.
	Obs *obs.Registry
	// Clock supplies wall time in seconds for the timing metrics. Nil
	// means obs.Stopped(): timing metrics stay zero and the library never
	// reads the wall clock itself (cmd layers inject the real clock).
	Clock obs.Clock
	// Trace, if non-nil, receives the campaign span tree: the run stage
	// and one span per prefix chain, lockstep batch, and case, parented
	// under TraceRoot. A nil tracer (the default) records nothing and costs
	// nothing — every tracer method is a nil-safe no-op.
	Trace *obs.Tracer
	// TraceRoot is the parent span for everything the runner records
	// (typically the "campaign" span cmd/campaign opens); 0 makes the
	// stage and prefix spans roots.
	TraceRoot obs.SpanID
	// Cache, if non-nil, is consulted before any case is scheduled: a
	// case whose fingerprint (Case.Hash) resolves to a stored result is
	// returned as a cache hit — counted in campaign_cache_hits_total and
	// marked with a cache-hit case span — and every freshly simulated
	// result is offered back via Store. Like OnResult, the cache is a
	// streaming consumer: when it is set the runner strips the bulky
	// per-case payloads from the results slice it retains (the cache and
	// any OnResult consumer own the full payloads).
	Cache ResultCache
}

// now reads the injected clock (0 when none is wired).
func (r *Runner) now() float64 {
	if r.Clock == nil {
		return 0
	}
	return r.Clock()
}

// caseSecondsBounds buckets per-case wall time: checkpointed forks finish
// in well under a second; straight 400 s missions take a few seconds.
var caseSecondsBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// runnerMetrics holds the resolved campaign instruments. All fields are
// nil-safe to skip: a Runner without Obs never builds one.
type runnerMetrics struct {
	cases    *obs.Counter
	errors   *obs.Counter
	forked   *obs.Counter
	straight *obs.Counter
	batched  *obs.Counter
	prefixes *obs.Counter

	completed *obs.Counter
	crashed   *obs.Counter
	failsafed *obs.Counter
	timedOut  *obs.Counter

	// traceDropped accumulates per-case event-ring evictions
	// (Diagnostics.TraceDropped), surfacing what was silent truncation.
	traceDropped *obs.Counter

	caseSeconds *obs.Histogram
	// checkpointSeconds is the time the feed loop spends flying chains.
	checkpointSeconds *obs.Gauge
	runSeconds        *obs.Gauge

	// activeWorkers/activeBatches are live concurrency levels for the
	// status endpoint: workers currently executing a unit, and units
	// currently inside a lockstep batch run.
	activeWorkers *obs.Gauge
	activeBatches *obs.Gauge
}

func newRunnerMetrics(reg *obs.Registry) *runnerMetrics {
	return &runnerMetrics{
		cases:    reg.Counter("campaign_cases_total"),
		errors:   reg.Counter("campaign_case_errors_total"),
		forked:   reg.Counter("campaign_cases_forked_total"),
		straight: reg.Counter("campaign_cases_straight_total"),
		batched:  reg.Counter("campaign_cases_batched_total"),
		prefixes: reg.Counter("campaign_prefixes_built_total"),

		completed: reg.Counter("campaign_outcome_completed_total"),
		crashed:   reg.Counter("campaign_outcome_crash_total"),
		failsafed: reg.Counter("campaign_outcome_failsafe_total"),
		timedOut:  reg.Counter("campaign_outcome_timeout_total"),

		traceDropped: reg.Counter("campaign_trace_dropped_total"),

		caseSeconds:       reg.Histogram("campaign_case_seconds", caseSecondsBounds),
		checkpointSeconds: reg.Gauge("campaign_checkpoint_stage_seconds"),
		runSeconds:        reg.Gauge("campaign_run_stage_seconds"),

		activeWorkers: reg.Gauge("campaign_active_workers"),
		activeBatches: reg.Gauge("campaign_active_batches"),
	}
}

// observeCase folds one finished case into the campaign counters.
func (m *runnerMetrics) observeCase(res CaseResult, forked bool, seconds float64) {
	if m == nil {
		return
	}
	m.cases.Inc()
	m.caseSeconds.Observe(seconds)
	if forked {
		m.forked.Inc()
	} else {
		m.straight.Inc()
	}
	if res.Err != "" {
		m.errors.Inc()
		return
	}
	if res.Result.Diagnostics != nil {
		m.traceDropped.Add(res.Result.Diagnostics.TraceDropped)
	}
	switch res.Result.Outcome {
	case sim.OutcomeCompleted:
		m.completed.Inc()
	case sim.OutcomeCrash:
		m.crashed.Inc()
	case sim.OutcomeFailsafe:
		m.failsafed.Inc()
	case sim.OutcomeTimeout:
		m.timedOut.Inc()
	}
}

// DefaultBatchWidth is the lockstep batch cap when Runner.BatchWidth is
// unset: wide enough to amortize the donor's draw cost to ~3% per fork,
// small enough that a worker's resident vehicle set stays modest.
const DefaultBatchWidth = 32

// NewRunner returns a runner with the default campaign configuration.
func NewRunner() *Runner {
	return &Runner{Config: sim.DefaultConfig(), Checkpoint: true, Batch: true}
}

// missionByID resolves a mission from the runner's scenario.
func (r *Runner) missionByID(id int) (mission.Mission, error) {
	ms := r.Missions
	if ms == nil {
		ms = mission.Valencia()
	}
	for _, m := range ms {
		if m.ID == id {
			return m, nil
		}
	}
	return mission.Mission{}, fmt.Errorf("core: unknown mission id %d", id)
}

// RunAll executes every case and returns results in the input order.
// Individual case failures are recorded in CaseResult.Err rather than
// aborting the campaign; ctx cancellation stops scheduling new cases.
// With a Cache wired, cases whose fingerprints are already stored are
// returned as cache hits without simulating; only the misses run.
func (r *Runner) RunAll(ctx context.Context, cases []Case) []CaseResult {
	if r.Cache != nil {
		return r.runAllCached(ctx, cases)
	}
	return r.runAll(ctx, cases)
}

// runAllCached partitions the cases against the cache, replays the hits
// through the usual streaming/progress/trace surfaces, and delegates the
// misses to the plain path with a Store hook on every fresh result.
func (r *Runner) runAllCached(ctx context.Context, cases []Case) []CaseResult {
	results := make([]CaseResult, len(cases))
	var (
		hitIdx  []int
		miss    []Case
		missIdx []int
	)
	for i, c := range cases {
		if c.Hash != "" {
			if res, ok := r.Cache.Lookup(c.Hash); ok &&
				res.Case.ID == c.ID && res.Case.Hash == c.Hash && res.Err == "" {
				results[i] = res
				hitIdx = append(hitIdx, i)
				continue
			}
		}
		miss = append(miss, c)
		missIdx = append(missIdx, i)
	}
	if r.Obs != nil {
		r.Obs.Counter("campaign_cache_hits_total").Add(int64(len(hitIdx)))
		r.Obs.Counter("campaign_cache_misses_total").Add(int64(len(miss)))
		// Cache hits are finished cases that never ran: the status
		// endpoint's done count folds them in through this counter.
		r.Obs.Counter("campaign_cases_cached_total").Add(int64(len(hitIdx)))
	}
	if r.Trace != nil && len(hitIdx) > 0 {
		hits := make([]CaseResult, len(hitIdx))
		for j, i := range hitIdx {
			hits[j] = results[i]
		}
		markCachedCases(r.Trace, r.TraceRoot, hits)
	}
	// Hits flow through the streaming consumer and the progress callback
	// first — in input order — so a results file stays complete and the
	// done/total contract covers the whole campaign.
	done := 0
	for _, i := range hitIdx {
		if r.OnResult != nil {
			r.OnResult(results[i])
		}
		done++
		if r.Progress != nil {
			r.Progress(done, len(cases))
		}
		// The cache (and any OnResult consumer) owns the heavy payloads;
		// the retained slice keeps only the flat outcome fields, exactly
		// like the fresh-result path below.
		results[i].Result.Trajectory = nil
		results[i].Result.Diagnostics = nil
	}

	sub := *r
	sub.Cache = nil
	if r.Progress != nil {
		base, total := done, len(cases)
		sub.Progress = func(d, _ int) { r.Progress(base+d, total) }
	}
	orig := r.OnResult
	sub.OnResult = func(res CaseResult) {
		if res.Err == "" && res.Case.Hash != "" {
			r.Cache.Store(res)
		}
		if orig != nil {
			orig(res)
		}
	}
	subResults := sub.runAll(ctx, miss)
	for j, i := range missIdx {
		results[i] = subResults[j]
	}
	return results
}

// poolSize is the worker count RunAll schedules over before clamping to
// the case count: Workers, or GOMAXPROCS when unset.
func (r *Runner) poolSize() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runAll is the cache-free execution path.
func (r *Runner) runAll(ctx context.Context, cases []Case) []CaseResult {
	workers := r.poolSize()
	if workers > len(cases) {
		workers = len(cases)
	}
	if workers < 1 {
		workers = 1
	}

	var metrics *runnerMetrics
	if r.Obs != nil {
		metrics = newRunnerMetrics(r.Obs)
	}

	results := make([]CaseResult, len(cases))
	units := r.workUnits(cases)
	unitCh := make(chan workUnit)

	runStart := r.now()
	runSpan := r.Trace.Start("stage:run", r.TraceRoot)
	var (
		wg       sync.WaitGroup
		doneMu   sync.Mutex
		doneObs  int
		progress = r.Progress
		onResult = r.OnResult
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range unitCh {
				if metrics != nil {
					metrics.activeWorkers.Add(1)
				}
				unitStart := r.now()
				unitResults, forked, batched := r.runUnit(cases, unit, metrics)
				// Per-case wall time: the batch steps its forks
				// interleaved, so the chunk's time is split evenly.
				perCase := (r.now() - unitStart) / float64(len(unit.idx))
				for j, idx := range unit.idx {
					res := unitResults[j]
					metrics.observeCase(res, forked[j], perCase)
					if metrics != nil && batched[j] {
						metrics.batched.Inc()
					}
					if progress != nil || onResult != nil {
						doneMu.Lock()
						if onResult != nil {
							onResult(res)
						}
						if progress != nil {
							doneObs++
							progress(doneObs, len(cases))
						}
						doneMu.Unlock()
					}
					if onResult != nil {
						// The streaming consumer owns the heavy payloads
						// now; keep only the flat outcome fields resident.
						res.Result.Trajectory = nil
						res.Result.Diagnostics = nil
					}
					results[idx] = res
				}
				if metrics != nil {
					metrics.activeWorkers.Add(-1)
				}
			}
		}()
	}

	// The feed loop alone touches chain state. It flies a chain to each
	// start just before dispatching the first unit there, so a snapshot
	// lives only while a pending or running unit holds it.
	var (
		cp         *sim.Checkpoint // the snapshot at the current chain start
		flySeconds float64
	)
feed:
	for _, u := range units {
		// select picks at random among ready cases, so check first: a
		// cancelled context must never schedule another unit.
		if ctx.Err() != nil {
			break
		}
		if u.chain != nil {
			if u.fly {
				flyStart := r.now()
				cp = r.advance(u.chain, u.start, metrics)
				flySeconds += r.now() - flyStart
			}
			if cp != nil {
				u.cp, u.parent = cp, u.chain.span
			}
		}
		select {
		case <-ctx.Done():
			break feed
		case unitCh <- u:
		}
	}
	close(unitCh)
	wg.Wait()
	r.Trace.End(runSpan)
	if metrics != nil {
		metrics.checkpointSeconds.Set(flySeconds)
		metrics.runSeconds.Set(r.now() - runStart)
	}

	// Cases never scheduled (cancelled) are marked explicitly.
	for i := range results {
		if results[i].Case.ID == "" {
			results[i] = CaseResult{Case: cases[i], Err: "cancelled"}
		}
	}
	return results
}

// prefixKey identifies the cases that can share one prefix chain:
// identical mission, environment seed, airframe, injection family and
// injection scope mean identical vehicle state up to each case's own
// injection start. The family matters because a sensor injector
// overwrites affected units with the primary's sample even before its
// window opens, while an actuator injector leaves the sensor stream
// alone (see sim.Checkpoint.ForkWithInjection). The start does not: before
// its window an injector only remembers the last clean sample or command,
// which a fork re-seeds.
type prefixKey struct {
	missionID int
	seed      int64
	airframe  string
	actuator  bool
	scope     faultinject.Scope
}

// casePrefixKey returns the case's sharing key, or the zero key for cases
// that cannot fork (gold runs and immediate injections).
func casePrefixKey(c Case) prefixKey {
	if c.Injection == nil || c.Injection.Start <= 0 {
		return prefixKey{}
	}
	return prefixKey{
		missionID: c.MissionID,
		seed:      c.Seed,
		airframe:  c.Airframe,
		actuator:  !c.Injection.SensorTarget(),
		scope:     c.Injection.Scope,
	}
}

// sortPrefixKeys orders prefix keys by (mission, seed, airframe, family,
// scope), the total order that makes chain scheduling independent of map
// iteration order.
func sortPrefixKeys(keys []prefixKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.missionID != b.missionID {
			return a.missionID < b.missionID
		}
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		if a.airframe != b.airframe {
			return a.airframe < b.airframe
		}
		if a.actuator != b.actuator {
			return !a.actuator // sensor prefixes before actuator prefixes
		}
		return a.scope < b.scope
	})
}

// chain is one shared prefix: the forkable cases of one prefixKey, flown
// as a single vehicle under rep and snapshotted at each of their starts.
// rep has the chain's latest start, so its injector is still before its
// window at every earlier snapshot; under any other case it would fire
// mid-chain and corrupt the later snapshots. Only the feed loop in runAll
// touches a chain.
type chain struct {
	rep   Case
	cases int
	v     *sim.Vehicle // flying: built at the first start, dropped at the last
	err   error        // v could not be built: the chain's cases run straight
	span  obs.SpanID
}

// workUnit is what a worker runs: case indices, and for forks the chain
// snapshot at their start and the chain's span to parent under. The feed
// loop fills cp and parent in, so workers never touch the chain.
type workUnit struct {
	idx    []int
	chain  *chain        // nil: the cases run straight
	start  time.Duration // the chain start the cases fork at
	fly    bool          // the first unit at start: advance the chain first
	cp     *sim.Checkpoint
	parent obs.SpanID
}

// workUnits partitions the case indices into work units. Cases outside
// any chain (gold runs, immediate injections, a key with a single case,
// or every case when Checkpoint is off) are singleton units, first, in
// input order. Then come the chains in sorted key order, each with its
// starts ascending; the cases at one start form chunks of up to
// BatchWidth indices to step in lockstep when Batch is on, singletons
// otherwise.
func (r *Runner) workUnits(cases []Case) []workUnit {
	groups := map[prefixKey][]int{}
	var keys []prefixKey
	if r.Checkpoint {
		for i, c := range cases {
			k := casePrefixKey(c)
			if k == (prefixKey{}) {
				continue
			}
			if groups[k] == nil {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], i)
		}
	}
	units := make([]workUnit, 0, len(cases))
	for i, c := range cases {
		if len(groups[casePrefixKey(c)]) < 2 {
			units = append(units, workUnit{idx: []int{i}, parent: r.TraceRoot})
		}
	}
	width := 1
	if r.Batch {
		width = r.BatchWidth
		if width <= 0 {
			width = DefaultBatchWidth
		}
	}
	// Map order would hand chains to workers in a different order every
	// run; sorting keeps scheduling reproducible for a given campaign.
	sortPrefixKeys(keys)
	for _, k := range keys {
		idxs := groups[k]
		if len(idxs) < 2 {
			continue
		}
		startOf := func(j int) time.Duration { return cases[idxs[j]].Injection.Start }
		sort.SliceStable(idxs, func(a, b int) bool { return startOf(a) < startOf(b) })
		ch := &chain{cases: len(idxs)}
		for lo := 0; lo < len(idxs); {
			hi := lo
			for hi < len(idxs) && startOf(hi) == startOf(lo) {
				hi++
			}
			ch.rep = cases[idxs[lo]] // ends as the first case at the last start
			for a := lo; a < hi; a += width {
				b := min(a+width, hi)
				units = append(units, workUnit{idx: idxs[a:b], chain: ch,
					start: startOf(lo), fly: a == lo, parent: r.TraceRoot})
			}
			lo = hi
		}
	}
	return units
}

// advance flies ch to start and returns its snapshot there, building the
// chain's vehicle at its first start and dropping it at its last. A nil
// snapshot means the vehicle could not be built; the chain's cases then
// run straight. The chain's prefix span runs from the build to the last
// snapshot, and its start_sec is the chain's last start: the prefix
// length.
func (r *Runner) advance(ch *chain, start time.Duration, metrics *runnerMetrics) *sim.Checkpoint {
	if ch.err != nil {
		return nil
	}
	last := ch.rep.Injection.Start
	if ch.v == nil {
		ch.span = r.Trace.Start("prefix", r.TraceRoot,
			obs.NumAttr("mission", float64(ch.rep.MissionID)),
			obs.NumAttr("seed", float64(ch.rep.Seed)),
			obs.StrAttr("scope", ch.rep.Injection.Scope.String()),
			obs.NumAttr("start_sec", last.Seconds()),
			obs.NumAttr("cases", float64(ch.cases)))
		if ch.v, ch.err = r.newVehicle(ch.rep); ch.err != nil {
			r.Trace.Annotate(ch.span, obs.BoolAttr("error", true))
			r.Trace.End(ch.span)
			return nil
		}
		if metrics != nil {
			metrics.prefixes.Inc()
		}
	}
	ch.v.RunUntil(start.Seconds())
	cp := ch.v.Snapshot()
	if start == last {
		ch.v = nil
		r.Trace.End(ch.span)
	}
	return cp
}

// runUnit executes one work unit and returns its results plus per-case
// forked/batched flags (index-aligned with unit.idx). A multi-case unit
// with a snapshot tries the lockstep batch first and falls back to
// per-case scalar execution if the batch cannot be built.
func (r *Runner) runUnit(cases []Case, unit workUnit, metrics *runnerMetrics) (results []CaseResult, forked, batched []bool) {
	tr := r.Trace
	if len(unit.idx) > 1 && unit.cp != nil {
		span := tr.Start("batch", unit.parent,
			obs.StrAttr("first", cases[unit.idx[0]].ID),
			obs.NumAttr("cases", float64(len(unit.idx))))
		if metrics != nil {
			metrics.activeBatches.Add(1)
		}
		out, ok := r.runBatchChunk(cases, unit.idx, unit.cp)
		if metrics != nil {
			metrics.activeBatches.Add(-1)
		}
		if ok {
			// The batch steps its forks interleaved, so per-case duration is
			// not individually observable: case spans carry identity and
			// outcome, the batch span carries the wall time.
			for j := range out {
				cs := tr.Start("case", span,
					obs.StrAttr("id", out[j].Case.ID),
					obs.NumAttr("seed", float64(out[j].Case.Seed)),
					obs.BoolAttr("batched", true))
				annotateCaseOutcome(tr, cs, out[j])
				tr.End(cs)
			}
			tr.End(span)
			flags := make([]bool, len(unit.idx))
			for j := range flags {
				flags[j] = true
			}
			return out, flags, flags
		}
		tr.Annotate(span, obs.BoolAttr("fallback", true))
		tr.End(span)
	}
	results = make([]CaseResult, len(unit.idx))
	forked = make([]bool, len(unit.idx))
	batched = make([]bool, len(unit.idx))
	for j, idx := range unit.idx {
		results[j], forked[j] = r.runCaseTraced(cases[idx], unit.cp, unit.parent)
	}
	return results, forked, batched
}

// runCaseTraced wraps runCase in a case span under parent (the chain's
// prefix span for forks, the root otherwise), with the outcome and
// fork/fallback markers annotated after the run.
func (r *Runner) runCaseTraced(c Case, cp *sim.Checkpoint, parent obs.SpanID) (CaseResult, bool) {
	tr := r.Trace
	span := tr.Start("case", parent,
		obs.StrAttr("id", c.ID),
		obs.NumAttr("seed", float64(c.Seed)))
	res, forked := r.runCase(c, cp)
	if cp != nil && !forked {
		// A checkpoint existed but the fork was rejected: the case ran
		// straight through as a fallback.
		tr.Annotate(span, obs.BoolAttr("fallback", true))
	}
	annotateCaseOutcome(tr, span, res)
	tr.End(span)
	return res, forked
}

// markCachedCases emits one closed cache-hit case span per replayed
// result under parent, so the per-case span count equals the case count
// in the results file whether a case ran or came from the cache. Only
// clean results are ever replayed, so each carries a real outcome.
func markCachedCases(tr *obs.Tracer, parent obs.SpanID, results []CaseResult) {
	for _, res := range results {
		id := tr.Start("case", parent,
			obs.StrAttr("id", res.Case.ID),
			obs.BoolAttr("cache_hit", true),
			obs.StrAttr("outcome", res.Result.Outcome.String()))
		tr.End(id)
	}
}

// annotateCaseOutcome records a finished case's classification on its span.
func annotateCaseOutcome(tr *obs.Tracer, span obs.SpanID, res CaseResult) {
	if res.Err != "" {
		tr.Annotate(span, obs.StrAttr("outcome", "error"))
		return
	}
	tr.Annotate(span, obs.StrAttr("outcome", res.Result.Outcome.String()))
}

// runBatchChunk forks every case in the chunk from the shared checkpoint
// and steps them in lockstep (sim.Batch). Any failure — an invalid fork or
// a mid-run IMU draw-window error — reports !ok and the caller falls back
// to the scalar path; a batch never produces partial results.
func (r *Runner) runBatchChunk(cases []Case, idx []int, cp *sim.Checkpoint) ([]CaseResult, bool) {
	injs := make([]*faultinject.Injection, len(idx))
	for j, i := range idx {
		injs[j] = cases[i].Injection
	}
	b, err := sim.NewBatch(cp, injs)
	if err != nil {
		return nil, false
	}
	simResults, err := b.Run()
	if err != nil {
		return nil, false
	}
	out := make([]CaseResult, len(idx))
	for j, i := range idx {
		out[j] = CaseResult{Case: cases[i], Result: simResults[j]}
	}
	return out, true
}

// runCase executes one case, preferring the forked path when a shared
// checkpoint exists. The second return reports whether the fork was used.
func (r *Runner) runCase(c Case, cp *sim.Checkpoint) (CaseResult, bool) {
	if cp != nil {
		if v, err := cp.ForkWithInjection(c.Injection, nil); err == nil {
			return CaseResult{Case: c, Result: v.RunToEnd()}, true
		}
		// A rejected fork (mismatched scope/start, racing plan edits) is
		// not fatal: fall back to the straight-through path.
	}
	v, err := r.newVehicle(c)
	if err != nil {
		return CaseResult{Case: c, Err: err.Error()}, false
	}
	return CaseResult{Case: c, Result: v.RunToEnd()}, false
}

// newVehicle builds the case's vehicle at t=0 in the runner's scenario.
func (r *Runner) newVehicle(c Case) (*sim.Vehicle, error) {
	m, err := r.missionByID(c.MissionID)
	if err != nil {
		return nil, err
	}
	cfg, err := r.caseConfig(c)
	if err != nil {
		return nil, err
	}
	return sim.NewVehicle(cfg, m, c.Injection, nil)
}

// caseConfig derives the simulation config for one case from the runner's
// base config: the seed always comes from the case, and a non-empty
// Airframe overrides the rotor layout. An empty Airframe keeps the base
// config byte-for-byte, so legacy quad campaigns stay bit-identical.
func (r *Runner) caseConfig(c Case) (sim.Config, error) {
	cfg := r.Config
	cfg.Seed = c.Seed
	if c.Airframe != "" {
		frame, err := physics.ParseAirframe(c.Airframe)
		if err != nil {
			return cfg, fmt.Errorf("core: case %s: %w", c.ID, err)
		}
		cfg.Airframe.Layout = frame
	}
	return cfg, nil
}

// SortByID orders results by case ID (stable presentation for reports).
func SortByID(results []CaseResult) {
	sort.Slice(results, func(i, j int) bool {
		return results[i].Case.ID < results[j].Case.ID
	})
}
