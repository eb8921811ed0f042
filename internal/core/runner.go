package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
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
	// Progress, if non-nil, is called after every completed case (a
	// cache hit completes before any case runs) with (done, total).
	// Calls are serialized.
	Progress func(done, total int)
	// OnResult, if non-nil, receives every finished case's FULL result in
	// input order; calls are serialized (same lock as Progress). A case
	// that finishes before an earlier one waits, payload and all, until
	// every earlier case has been emitted; on return, including after
	// cancellation, the finished cases still waiting are emitted in order
	// and the cases that never ran are skipped. Once a result is emitted,
	// the runner strips its bulky payloads (Trajectory, Diagnostics) from
	// the results slice it retains and returns, so resident memory is
	// bounded by the out-of-order window of finished cases rather than
	// O(cases) — the aggregate tables only read the flat outcome fields
	// that remain.
	OnResult func(CaseResult)
	// Checkpoint enables checkpoint-and-fork execution: the faulted cases
	// sharing a mission, environment seed, airframe, variant, injection
	// family and injection scope form one chain, a single fault-free flight
	// snapshotted at each of their injection starts; every case forks from
	// the snapshot at its own start, bit-identical to a straight-through
	// run (sim.TestForkFromChainBitIdentical). With the paper's plan, the
	// 84 faulty cases of each mission share one 90-second chain. A case in
	// no chain (a gold run, an immediate injection, the lone case of its
	// key) flies from launch. The zero-value Runner runs every case
	// straight through.
	Checkpoint bool
	// Batch additionally steps the cases of one flight environment (one
	// mission, environment seed, airframe and variant) in lockstep
	// (sim.Batch), in chunks of up to DefaultBatchWidth cases in join
	// order: one donor vehicle draws the shared environment noise once per
	// tick for all of them, across chains, families and starts. A chain
	// case joins from its chain's snapshot on the tick the donor reaches
	// its start; any other case joins at launch from a fresh snapshot of
	// its own vehicle. This eliminates the dominant per-case NormFloat64
	// cost.
	// Outcomes stay bit-identical to straight runs (sim.TestBatchBitIdentical,
	// sim.TestBatchAcrossStartsBitIdentical,
	// sim.TestBatchAcrossPrefixesBitIdentical). Requires Checkpoint; a
	// one-case chunk forks scalar or runs straight, and a failed batch
	// falls back to that case by case.
	Batch bool
	// batchWidth caps how many cases share one lockstep batch; <= 0 means
	// DefaultBatchWidth. In-package tests narrow it to split small chains
	// across chunks.
	batchWidth int
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
	// result is offered back via Store as it finishes. A hit takes its
	// own place in the input order OnResult sees. Like OnResult, the
	// cache is a streaming consumer: when it is set the runner strips the
	// bulky per-case payloads from the results slice it retains once each
	// is emitted (the cache and any OnResult consumer own the full
	// payloads).
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

// DefaultBatchWidth is the lockstep batch cap: wide enough to amortize
// the donor's draw cost to ~3% per fork, small enough that a worker's
// resident set of forks and the snapshots they join from stays modest.
const DefaultBatchWidth = 32

// width is the lockstep batch cap in effect.
func (r *Runner) width() int {
	if r.batchWidth <= 0 {
		return DefaultBatchWidth
	}
	return r.batchWidth
}

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
	out := &resultOrder{
		results:  make([]CaseResult, len(cases)),
		finished: make([]bool, len(cases)),
		onResult: r.OnResult,
		progress: r.Progress,
		cache:    r.Cache,
		strip:    r.OnResult != nil || r.Cache != nil,
	}
	run, pos := cases, []int(nil)
	if r.Cache != nil {
		run, pos = r.replayHits(cases, out)
	}
	r.runAll(ctx, run, pos, out)
	out.flush()
	// Cases never scheduled (cancelled) are marked explicitly.
	for i, ok := range out.finished {
		if !ok {
			out.results[i] = CaseResult{Case: cases[i], Err: "cancelled"}
		}
	}
	return out.results
}

// resultOrder collects finished results and hands them to OnResult in
// input order, so the results stream, and a results file written from
// it, does not depend on scheduling. A result that finishes before an
// earlier case waits in results with its full payload until every
// earlier case has been emitted; once emitted, its bulky payload is
// stripped when a streaming consumer owns it. Progress counts
// completions, not emissions.
type resultOrder struct {
	mu       sync.Mutex
	results  []CaseResult
	finished []bool
	next     int // the first case not yet emitted
	done     int // cases finished so far
	onResult func(CaseResult)
	progress func(done, total int)
	cache    ResultCache
	strip    bool
}

// finish records case i's result: a fresh one is offered to the cache,
// every result now at the head of the input order is emitted, and the
// completion is reported to Progress.
func (o *resultOrder) finish(i int, res CaseResult, fresh bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if fresh && o.cache != nil && res.Err == "" && res.Case.Hash != "" {
		o.cache.Store(res)
	}
	o.results[i], o.finished[i] = res, true
	o.emit(false)
	o.done++
	if o.progress != nil {
		o.progress(o.done, len(o.results))
	}
}

// flush emits every finished result still waiting, in order, passing
// over the cases that never ran.
func (o *resultOrder) flush() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.emit(true)
}

// emit hands the finished results from next on to OnResult, stopping at
// the first unfinished case or, with skipUnfinished, passing over it.
func (o *resultOrder) emit(skipUnfinished bool) {
	for ; o.next < len(o.results); o.next++ {
		if !o.finished[o.next] {
			if skipUnfinished {
				continue
			}
			return
		}
		res := &o.results[o.next]
		if o.onResult != nil {
			o.onResult(*res)
		}
		if o.strip {
			res.Result.Trajectory = nil
			res.Result.Diagnostics = nil
		}
	}
}

// replayHits finishes every case whose fingerprint resolves to a clean
// stored result and returns the misses with their input positions.
func (r *Runner) replayHits(cases []Case, out *resultOrder) (miss []Case, pos []int) {
	var hits []CaseResult
	for i, c := range cases {
		if c.Hash != "" {
			if res, ok := r.Cache.Lookup(c.Hash); ok &&
				res.Case.ID == c.ID && res.Case.Hash == c.Hash && res.Err == "" {
				if r.Trace != nil {
					hits = append(hits, res)
				}
				out.finish(i, res, false)
				continue
			}
		}
		miss = append(miss, c)
		pos = append(pos, i)
	}
	if r.Obs != nil {
		r.Obs.Counter("campaign_cache_hits_total").Add(int64(len(cases) - len(miss)))
		r.Obs.Counter("campaign_cache_misses_total").Add(int64(len(miss)))
	}
	markCachedCases(r.Trace, r.TraceRoot, hits)
	return miss, pos
}

// poolSize is the worker count RunAll schedules over before clamping to
// the case count: Workers, or GOMAXPROCS when unset.
func (r *Runner) poolSize() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runAll simulates cases over the worker pool and finishes each result
// in out at its input position: pos[i] for cases[i], or i when pos is
// nil.
func (r *Runner) runAll(ctx context.Context, cases []Case, pos []int, out *resultOrder) {
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

	units, chainOf := r.workUnits(cases)
	unitCh := make(chan workUnit)

	runStart := r.now()
	runSpan := r.Trace.Start("stage:run", r.TraceRoot)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range unitCh {
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
					if pos != nil {
						idx = pos[idx]
					}
					out.finish(idx, res, true)
				}
			}
		}()
	}

	// The feed loop alone touches chain state. It flies each chain through
	// a unit's starts just before dispatching the unit, so a snapshot
	// lives only while a pending or running unit holds it (a batch lets
	// each go as its case joins).
	var flySeconds float64
feed:
	for _, u := range units {
		// select picks at random among ready cases, so check first: a
		// cancelled context must never schedule another unit.
		if ctx.Err() != nil {
			break
		}
		flyStart := r.now()
		u.joins = r.joins(cases, chainOf, u.idx, metrics)
		flySeconds += r.now() - flyStart
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
}

// envKey identifies a flight environment: the cases of one mission,
// environment seed, airframe and variant fly one config and draw
// bit-identical environment streams (sensor noise and wind depend only on
// the seed and the time), whatever their injections, so one batch donor
// can draw for all of them.
type envKey struct {
	missionID int
	seed      int64
	airframe  string
	variant   string
}

func caseEnvKey(c Case) envKey {
	return envKey{missionID: c.MissionID, seed: c.Seed, airframe: c.Airframe, variant: c.variantName()}
}

// compare orders environments by (mission, seed, airframe, variant).
func (a envKey) compare(b envKey) int {
	return cmp.Or(cmp.Compare(a.missionID, b.missionID), cmp.Compare(a.seed, b.seed),
		cmp.Compare(a.airframe, b.airframe), cmp.Compare(a.variant, b.variant))
}

// prefixKey identifies the cases that can share one prefix chain:
// identical flight environment, injection family and injection scope
// mean identical vehicle state up to each case's own injection start. The family matters because a sensor injector
// overwrites affected units with the primary's sample even before its
// window opens, while an actuator injector leaves the sensor stream
// alone (see sim.Checkpoint.ForkWithInjection). The start does not: before
// its window an injector only remembers the last clean sample or command,
// which a fork re-seeds.
type prefixKey struct {
	env      envKey
	actuator bool
	scope    faultinject.Scope
}

// casePrefixKey returns the case's sharing key, or the zero key for cases
// that cannot fork (gold runs and immediate injections).
func casePrefixKey(c Case) prefixKey {
	if c.Injection == nil || c.Injection.Start <= 0 {
		return prefixKey{}
	}
	return prefixKey{
		env:      caseEnvKey(c),
		actuator: !c.Injection.SensorTarget(),
		scope:    c.Injection.Scope,
	}
}

// sortPrefixKeys orders prefix keys by (environment, family, scope), the
// total order that makes chain scheduling independent of map iteration
// order.
func sortPrefixKeys(keys []prefixKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if c := a.env.compare(b.env); c != 0 {
			return c < 0
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
	rep    Case
	cases  int
	handed int             // cases given their snapshot so far
	v      *sim.Vehicle    // flying: built at the first start, dropped at the last
	cp     *sim.Checkpoint // the newest snapshot, at cpAt; dropped with the last case
	cpAt   time.Duration
	err    error // v could not be built: the chain's cases run straight
	span   obs.SpanID
}

// workUnit is what a worker runs: case indices and how each case joins,
// which the feed loop fills in so workers never touch a chain.
type workUnit struct {
	idx   []int
	joins []join
}

// join is how one case of a work unit starts.
type join struct {
	cp     *sim.Checkpoint // nil: the case runs straight
	fork   bool            // the case is a chain's: cp is the chain's snapshot at its start
	parent obs.SpanID      // the chain's prefix span, or the trace root
}

// workUnits partitions the case indices into work units and returns
// them with each case's chain (nil for a case in none). A batching
// runner groups the cases by flight environment, in sorted key order,
// and cuts each group, in join order (a chain case at its start, any
// other case at launch), into chunks of up to width() cases to step
// in lockstep; a chunk may span chains and starts. Otherwise every case
// is its own unit: first the cases outside any chain (gold runs,
// immediate injections, a key with a single case, or every case when
// Checkpoint is off), in input order, then the chains in sorted key
// order, each in ascending start order.
func (r *Runner) workUnits(cases []Case) ([]workUnit, []*chain) {
	var chainOf []*chain
	var groups [][]int
	if r.Checkpoint {
		chainOf, groups = buildChains(cases)
	} else {
		chainOf = make([]*chain, len(cases))
	}
	width := 1
	if r.Checkpoint && r.Batch {
		width = r.width()
		groups = envGroups(cases)
	} else {
		var lone [][]int
		for i := range cases {
			if chainOf[i] == nil {
				lone = append(lone, []int{i})
			}
		}
		groups = append(lone, groups...)
	}
	joinAt := func(i int) time.Duration {
		if chainOf[i] == nil {
			return 0
		}
		return cases[i].Injection.Start
	}
	units := make([]workUnit, 0, len(cases))
	for _, g := range groups {
		sort.SliceStable(g, func(a, b int) bool { return joinAt(g[a]) < joinAt(g[b]) })
		for a := 0; a < len(g); a += width {
			units = append(units, workUnit{idx: g[a:min(a+width, len(g))]})
		}
	}
	return units, chainOf
}

// buildChains groups the forkable cases by prefix key. It returns each
// case's chain (nil for a case in none: gold runs, immediate injections
// and the lone case of a key) and every chain's cases, in sorted key
// order and input order within.
func buildChains(cases []Case) ([]*chain, [][]int) {
	byKey := map[prefixKey][]int{}
	var keys []prefixKey
	for i, c := range cases {
		k := casePrefixKey(c)
		if k == (prefixKey{}) {
			continue
		}
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	// Map order would hand chains to workers in a different order every
	// run; sorting keeps scheduling reproducible for a given campaign.
	sortPrefixKeys(keys)
	chainOf := make([]*chain, len(cases))
	var groups [][]int
	for _, k := range keys {
		idxs := byKey[k]
		if len(idxs) < 2 {
			continue
		}
		rep := idxs[0] // the first case at the latest start
		for _, i := range idxs[1:] {
			if cases[i].Injection.Start > cases[rep].Injection.Start {
				rep = i
			}
		}
		ch := &chain{rep: cases[rep], cases: len(idxs)}
		for _, i := range idxs {
			chainOf[i] = ch
		}
		groups = append(groups, idxs)
	}
	return chainOf, groups
}

// envGroups partitions the case indices by flight environment, in sorted
// key order and input order within.
func envGroups(cases []Case) [][]int {
	byKey := map[envKey][]int{}
	var keys []envKey
	for i, c := range cases {
		k := caseEnvKey(c)
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	slices.SortFunc(keys, envKey.compare)
	groups := make([][]int, len(keys))
	for j, k := range keys {
		groups[j] = byKey[k]
	}
	return groups
}

// joins sets up how each case of a unit starts: a chain's case from the
// chain's snapshot at its start, any other case of a multi-case unit from
// a fresh launch snapshot of its own vehicle, to join the unit's batch at
// step 0. A case left without a snapshot (its chain or its vehicle could
// not be built) runs straight, and errors there as it would alone.
func (r *Runner) joins(cases []Case, chainOf []*chain, idx []int, metrics *runnerMetrics) []join {
	js := make([]join, len(idx))
	for j, i := range idx {
		js[j].parent = r.TraceRoot
		if ch := chainOf[i]; ch != nil {
			js[j].fork = true
			if js[j].cp = r.snapshot(ch, cases[i].Injection.Start, metrics); js[j].cp != nil {
				js[j].parent = ch.span
			}
		} else if len(idx) > 1 {
			if v, err := r.newVehicle(cases[i]); err == nil {
				js[j].cp = v.Snapshot()
			}
		}
	}
	return js
}

// snapshot hands out ch's snapshot at start to one of its cases, flying
// the chain there unless its newest snapshot already is at start. The
// chain drops that snapshot once its last case has it.
func (r *Runner) snapshot(ch *chain, start time.Duration, metrics *runnerMetrics) *sim.Checkpoint {
	if ch.cp == nil || ch.cpAt != start {
		ch.cp, ch.cpAt = r.advance(ch, start, metrics), start
	}
	cp := ch.cp
	if ch.handed++; ch.handed == ch.cases {
		ch.cp = nil
	}
	return cp
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
// forked/batched flags (index-aligned with unit.idx). The unit's cases
// with a snapshot, when there are two or more, try one lockstep batch;
// every other case, and every case of a failed batch, runs scalar: a
// chain's case forks while its snapshot is still held, and runs straight
// where the batch already let it go or it never had one.
func (r *Runner) runUnit(cases []Case, unit workUnit, metrics *runnerMetrics) (results []CaseResult, forked, batched []bool) {
	results = make([]CaseResult, len(unit.idx))
	forked = make([]bool, len(unit.idx))
	batched = make([]bool, len(unit.idx))
	var members []int
	for j, jn := range unit.joins {
		if jn.cp != nil {
			members = append(members, j)
		}
	}
	if len(members) > 1 && r.runBatch(cases, unit, members, results) {
		for _, j := range members {
			forked[j], batched[j] = unit.joins[j].fork, true
		}
	}
	for j, idx := range unit.idx {
		if batched[j] {
			continue
		}
		jn := unit.joins[j]
		var cp *sim.Checkpoint
		if jn.fork {
			cp = jn.cp // a launch snapshot never forks scalar: that is a straight run
		}
		results[j], forked[j] = r.runCaseTraced(cases[idx], cp, jn.parent)
	}
	return results, forked, batched
}

// runBatch steps the members of unit (positions in unit.idx, each with a
// snapshot) in one lockstep batch (sim.Batch) and fills in their results.
// The batch takes the snapshots over and releases each as its case joins.
// Any failure — a checkpoint of another environment, an invalid fork, a
// mid-run IMU draw-window error — reports false with no result filled in
// and the snapshots still held given back, and the caller falls back to
// the scalar path; a batch never produces partial results.
//
// The batch span sits under the prefix span of the first member that
// forks, or the root when none does. A forked member's case span sits
// under the batch span; a member that joined at launch has its case span
// at the root.
func (r *Runner) runBatch(cases []Case, unit workUnit, members []int, results []CaseResult) bool {
	tr := r.Trace
	parent, forks := r.TraceRoot, false
	cps := make([]*sim.Checkpoint, len(members))
	injs := make([]*faultinject.Injection, len(members))
	for k, j := range members {
		jn := &unit.joins[j]
		if jn.fork && !forks {
			parent, forks = jn.parent, true
		}
		cps[k], jn.cp = jn.cp, nil
		injs[k] = cases[unit.idx[j]].Injection
	}
	span := tr.Start("batch", parent,
		obs.StrAttr("first", cases[unit.idx[members[0]]].ID),
		obs.NumAttr("cases", float64(len(members))))
	b, err := sim.NewBatch(cps, injs)
	var simResults []sim.Result
	if err == nil {
		simResults, err = b.Run()
	}
	if err != nil {
		for k, j := range members {
			unit.joins[j].cp = cps[k]
		}
		tr.Annotate(span, obs.BoolAttr("fallback", true))
		tr.End(span)
		return false
	}
	// The batch steps its cases interleaved, so per-case duration is not
	// individually observable: case spans carry identity and outcome, the
	// batch span carries the wall time.
	for k, j := range members {
		res := CaseResult{Case: cases[unit.idx[j]], Result: simResults[k]}
		results[j] = res
		csParent := span
		if !unit.joins[j].fork {
			csParent = r.TraceRoot
		}
		cs := tr.Start("case", csParent,
			obs.StrAttr("id", res.Case.ID),
			obs.NumAttr("seed", float64(res.Case.Seed)),
			obs.BoolAttr("batched", true))
		annotateCaseOutcome(tr, cs, res)
		tr.End(cs)
	}
	tr.End(span)
	return true
}

// runCaseTraced wraps runCase in a case span under parent (the chain's
// prefix span for a chain's case, the root otherwise), with the outcome and
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
// base config: the seed always comes from the case, a non-empty Airframe
// overrides the rotor layout, and a Variant's overrides go on top. A case
// with neither keeps the base config byte-for-byte, so legacy quad
// campaigns stay bit-identical.
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
	if c.Variant != nil {
		c.Variant.Overrides.Apply(&cfg)
	}
	return cfg, nil
}

// SortByID orders results by case ID (stable presentation for reports).
func SortByID(results []CaseResult) {
	sort.Slice(results, func(i, j int) bool {
		return results[i].Case.ID < results[j].Case.ID
	})
}
