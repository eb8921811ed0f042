// Command campaign compiles a declarative campaign spec and executes it
// on the shared engine. The default spec is the paper's full
// fault-injection campaign — 21 injection types x 10 Valencia missions x
// 4 durations plus 10 gold runs (850 cases). On the paper grid it prints
// how many of the paper's shape checks hold; cmd/report renders the
// tables and per-case verdicts from the results file. Results stream to
// JSON in case order as cases finish, each stamped with a content hash,
// so one campaign always writes the same bytes, and an interrupted or
// partially re-configured campaign resumes with -resume by executing
// only the missing or invalidated cases.
//
// Usage:
//
//	campaign [-workers N] [-seed S] [-out results.json] [-checkpoint=false] [-batch=false]
//	campaign -spec examples/specs/paper-850.json
//	campaign -select mission=4,target=gyro -select "id=m07-*freeze*"
//	campaign -resume -out results.json
//	campaign -store out/store
//	campaign -validate-spec examples/specs/paper-850.json
//	campaign -print-spec
//	campaign -compare-results a.json,b.json
//	campaign [-metrics-out metrics.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	campaign -validate-metrics metrics.json
//	campaign [-trace-out trace.json] [-blackbox-dir out/blackbox]
//	campaign -validate-trace trace.json
//
// Simulation settings (fault scope, EKF covariance decimation, failsafe
// thresholds) live in the spec's matrix and overrides blocks; the CLI
// sets only the seed and the case selection of a spec.
//
// With -store, fingerprint-stored cases replay from the
// content-addressed result store instead of simulating, and fresh
// results are stored back. -resume is the same mechanism over the -out
// file: its prior results seed the runner's cache. To select by ID
// substring, use -select "id=*SUBSTR*".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"uavres/internal/blackbox"
	"uavres/internal/core"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/paperdata"
	"uavres/internal/spec"
	"uavres/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "campaign base seed (overrides the spec's seed when set explicitly)")
		out        = flag.String("out", "campaign_results.json", "JSON results output path (empty = skip)")
		specPath   = flag.String("spec", "", "campaign spec JSON path (empty = the built-in paper-850 spec)")
		storeDir   = flag.String("store", "", "content-addressed result store directory: fingerprint-stored cases return as cache hits, fresh results are stored back")
		resume     = flag.Bool("resume", false, "load the -out results file and run only the missing, stale, or errored cases")
		checkpoint = flag.Bool("checkpoint", true, "share pre-injection prefixes between cases (checkpoint-and-fork; false = simulate every case straight through)")
		batch      = flag.Bool("batch", true, "step each flight environment's cases in lockstep batches (false = one scalar fork or straight run per case)")
		printSpec  = flag.Bool("print-spec", false, "print the effective campaign spec as JSON and exit")
		quiet      = flag.Bool("q", false, "suppress progress output")

		compareResults  = flag.String("compare-results", "", "compare two results files (\"a.json,b.json\") case-by-case for bit-identical results and exit (CI equivalence gate)")
		validateSpec    = flag.String("validate-spec", "", "validate a campaign spec JSON file, print its case count, and exit (CI schema gate)")
		metricsOut      = flag.String("metrics-out", "", "write the campaign metrics snapshot as JSON to this path")
		validateMetrics = flag.String("validate-metrics", "", "validate a metrics snapshot JSON file and exit (CI schema gate)")
		cpuprofile      = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile      = flag.String("memprofile", "", "write a heap profile to this path")
		traceOut        = flag.String("trace-out", "", "write the campaign span tree as Chrome/Perfetto trace-event JSON to this path")
		validateTrace   = flag.String("validate-trace", "", "validate a trace-event JSON file and exit (CI schema gate)")
		blackboxDir     = flag.String("blackbox-dir", "", "write a black-box dump per crash/violation case into this directory (load with replay -blackbox)")
	)
	var selectors []spec.Selector
	flag.Func("select", "case selector (repeatable, OR across flags, ANDed with the spec's select list): key=value terms ANDed within one flag — id (exact or glob), mission, target, primitive, duration, start, gold, airframe", func(expr string) error {
		sel, err := spec.ParseSelector(expr)
		if err != nil {
			return err
		}
		selectors = append(selectors, sel)
		return nil
	})
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// -resume replays the -out file; with no file there is nothing to
	// resume from. Fail before any compile or output prep happens.
	if *resume && *out == "" {
		fmt.Fprintln(os.Stderr, "campaign: -resume needs -out to name the results file")
		return 1
	}

	if *compareResults != "" {
		return compareResultsFiles(*compareResults)
	}
	if *validateSpec != "" {
		s, err := spec.Load(*validateSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		cases, err := s.Compile(mission.Valencia())
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		fmt.Printf("campaign: %s is valid: %s, %d cases\n", *validateSpec, s, len(cases))
		return 0
	}
	if *validateMetrics != "" {
		data, err := os.ReadFile(*validateMetrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		if err := obs.ValidateSnapshotJSON(data); err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		fmt.Printf("campaign: %s is a valid metrics snapshot\n", *validateMetrics)
		return 0
	}
	if *validateTrace != "" {
		data, err := os.ReadFile(*validateTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		if err := obs.ValidateTraceEventJSON(data); err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		fmt.Printf("campaign: %s is a valid trace-event document\n", *validateTrace)
		return 0
	}

	// Output destinations are prepared before any case runs: a campaign
	// must fail on an unwritable path now, not after hours of simulation.
	for _, o := range []struct{ flag, path string }{
		{"-out", *out},
		{"-metrics-out", *metricsOut},
		{"-trace-out", *traceOut},
		{"-cpuprofile", *cpuprofile},
		{"-memprofile", *memprofile},
	} {
		if err := ensureParentDir(o.flag, o.path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *blackboxDir != "" {
		if err := os.MkdirAll(*blackboxDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: -blackbox-dir: %v\n", err)
			return 1
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	s, err := effectiveSpec(*specPath, *seed, explicit["seed"], selectors)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 1
	}
	if *printSpec {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		fmt.Println(string(data))
		return 0
	}

	cases, err := s.Compile(mission.Valencia())
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 1
	}
	if len(cases) == 0 {
		fmt.Fprintln(os.Stderr, "campaign: no cases selected")
		return 1
	}
	if s.Matrix.Scope != "" && s.Matrix.Scope != "all" {
		fmt.Println("campaign: redundancy ablation — faults strike only IMU unit 0")
	}

	// The wall clock enters here and nowhere deeper: the runner and the
	// simulation below it only ever see this injected obs.Clock.
	start := time.Now()
	clock := func() float64 { return time.Since(start).Seconds() }

	reg := obs.NewRegistry()
	runner := core.NewRunner()
	runner.Workers = *workers
	runner.Checkpoint = *checkpoint
	runner.Batch = *batch
	runner.Obs = reg
	runner.Clock = clock
	s.Overrides.Apply(&runner.Config)

	// Every case is stamped with its content hash under the final
	// effective config — the cache key -resume and -store compare.
	spec.AttachFingerprints(cases, runner.Config)

	// Content-addressed result store: fingerprint-stored cases return as
	// cache hits without simulating; fresh results are stored back. The
	// store's gauges land in the same registry, so -metrics-out snapshots
	// carry object/byte counts alongside the hit/miss counters.
	var resultStore *store.Store
	if *storeDir != "" {
		var err error
		resultStore, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		defer resultStore.Close()
		resultStore.RegisterMetrics(reg)
		runner.Cache = resultStore
	}

	// Resume: the prior results file becomes the runner's cache, so its
	// clean, still-fingerprint-valid results replay and only missing,
	// stale, errored, or hashless cases simulate. With -store, the prior
	// results are offered to the store instead (Put refuses errored and
	// hashless results, which Store would latch as a persistence error).
	// The -resume/-out combination was validated right after flag
	// parsing, before any compile work.
	resumeNote := ""
	if *resume {
		_, prior, truncated, err := core.LoadPartialResultsFile(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		if truncated {
			resumeNote = " (truncated mid-write)"
		}
		if resultStore == nil {
			runner.Cache = core.NewMemoryCache(prior)
		} else {
			for _, cr := range prior {
				if cr.Err == "" && cr.Case.Hash != "" {
					resultStore.Store(cr)
				}
			}
		}
	}
	fmt.Printf("campaign: %s: %d cases, seed %d\n", s, len(cases), s.Seed)
	hdr := runner.ResultsHeader(s.Hash())

	// Span tracer: one campaign root, the runner fills in the stage /
	// prefix / batch / case tree, with closed cache-hit case spans for
	// replayed results so the span count still matches the results.
	var (
		tracer    *obs.Tracer
		traceRoot obs.SpanID
	)
	if *traceOut != "" {
		tracer = obs.NewTracer(clock, 2*len(cases)+64)
		traceRoot = tracer.Start("campaign", 0,
			obs.StrAttr("spec", hdr.SpecHash),
			obs.StrAttr("rng", hdr.RNGPolicy),
			obs.StrAttr("mode", hdr.RunnerMode),
			obs.NumAttr("batch_width", float64(hdr.BatchWidth)),
			obs.NumAttr("cases", float64(len(cases))))
		runner.Trace = tracer
		runner.TraceRoot = traceRoot
	}

	// Stream results to disk in case order as cases finish: the runner
	// holds a finished case until every earlier one is written, then
	// strips its heavy payloads once the writer owns them. Cache hits
	// (the prior file's results on resume) take their own places among
	// the fresh results, so a resumed file equals an uninterrupted one
	// byte for byte. The black-box dumper shares the same OnResult hook —
	// it needs the full Diagnostics block, which only exists before the
	// strip.
	var (
		stream    *core.ResultsFileWriter
		streamErr error
		bboxErr   error
		bboxCount int
	)
	if *out != "" {
		stream, err = core.NewResultsFileWriter(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: opening results stream: %v\n", err)
			return 1
		}
		streamErr = stream.WriteHeader(hdr)
	}
	if stream != nil || *blackboxDir != "" {
		runner.OnResult = func(res core.CaseResult) {
			if *blackboxDir != "" && blackbox.ShouldDump(res) {
				if _, err := blackbox.Write(*blackboxDir, blackbox.FromCase(res, hdr.SpecHash)); err != nil {
					if bboxErr == nil {
						bboxErr = err
					}
				} else {
					bboxCount++
				}
			}
			if stream != nil {
				if err := stream.Write(res); err != nil && streamErr == nil {
					streamErr = err
				}
			}
		}
	}
	if !*quiet {
		runner.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				elapsed := clock()
				fmt.Printf("  %4d/%d (%.0f%%, %.1fs elapsed, ~%.0fs left)\n",
					done, total, 100*float64(done)/float64(total), elapsed,
					elapsed/float64(done)*float64(total-done))
			}
		}
	}

	// Ctrl-C stops scheduling new cases; whatever finished is already on
	// disk, so the very same invocation plus -resume picks up the rest.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results := runner.RunAll(ctx, cases)
	if *resume {
		fmt.Printf("campaign: resume from %s%s: %d hits, %d misses\n", *out, resumeNote,
			reg.Counter("campaign_cache_hits_total").Value(),
			reg.Counter("campaign_cache_misses_total").Value())
	}

	var failures int
	for _, r := range results {
		if r.Err != "" {
			failures++
			fmt.Fprintf(os.Stderr, "campaign: case %s failed: %s\n", r.Case.ID, r.Err)
		}
	}

	if resultStore != nil {
		st := resultStore.Stats()
		fmt.Printf("campaign: store %s: %d hits, %d misses, %d stored (%d objects, %d bytes)\n",
			*storeDir, st.Hits, st.Misses, st.Puts, st.Objects, st.Bytes)
		if err := resultStore.Err(); err != nil {
			// Lost puts only cost future cache hits; the campaign's own
			// results are intact, so report without failing the run.
			fmt.Fprintf(os.Stderr, "campaign: store persistence degraded: %v\n", err)
		}
	}

	if paperdata.IsPaperGrid(results) {
		fmt.Println(paperdata.Summary(paperdata.Compare(results)))
	}

	if stream != nil {
		if err := stream.Close(); streamErr == nil {
			streamErr = err
		}
		if streamErr != nil {
			fmt.Fprintf(os.Stderr, "campaign: saving results: %v\n", streamErr)
			return 1
		}
		fmt.Printf("results written to %s (tables and verdicts: go run ./cmd/report -in %s)\n", *out, *out)
	}
	if *blackboxDir != "" {
		if bboxErr != nil {
			fmt.Fprintf(os.Stderr, "campaign: writing black boxes: %v\n", bboxErr)
			return 1
		}
		fmt.Printf("%d black box(es) written to %s\n", bboxCount, *blackboxDir)
	}
	if tracer != nil {
		tracer.End(traceRoot)
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		werr := tracer.WriteTraceEvents(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "campaign: writing trace: %v\n", werr)
			return 1
		}
		fmt.Printf("trace written to %s (%d spans, %d dropped)\n", *traceOut, tracer.Len(), tracer.Dropped())
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		werr := reg.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "campaign: writing metrics: %v\n", werr)
			return 1
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			return 1
		}
		runtime.GC() // get up-to-date heap statistics
		werr := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "campaign: writing heap profile: %v\n", werr)
			return 1
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// effectiveSpec assembles the spec a campaign runs: the file at path, or
// the built-in paper spec, with the CLI seed (when set, or always for the
// built-in spec) and selectors folded in. The selectors AND with the
// spec's select list, so Compile prunes for both, and -print-spec prints
// the very plan that runs.
func effectiveSpec(path string, seed int64, seedSet bool, selectors []spec.Selector) (spec.CampaignSpec, error) {
	s := spec.Paper(seed)
	if path != "" {
		var err error
		if s, err = spec.Load(path); err != nil {
			return s, err
		}
		if seedSet {
			s.Seed = seed
		}
	}
	var err error
	s.Select, err = spec.AndSelectors(s.Select, selectors)
	return s, err
}

// ensureParentDir creates the parent directory of an output path so a
// campaign fails on an unwritable destination before it runs, not when
// it tries to save results hours later.
func ensureParentDir(flagName, path string) error {
	if path == "" {
		return nil
	}
	dir := filepath.Dir(path)
	if dir == "." || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: %s: creating parent directory: %w", flagName, err)
	}
	return nil
}

// compareResultsFiles loads two results files ("a.json,b.json"), pairs
// cases by ID, and requires bit-identical results. This is the
// batch-vs-scalar equivalence gate ci.sh runs; headers are printed but
// allowed to differ — comparing across runner modes is the point.
func compareResultsFiles(pair string) int {
	parts := strings.Split(pair, ",")
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		fmt.Fprintln(os.Stderr, "campaign: -compare-results wants two comma-separated paths: a.json,b.json")
		return 1
	}
	describe := func(h *core.ResultsHeader) string {
		if h == nil {
			return "no header"
		}
		return fmt.Sprintf("mode=%s width=%d rng=%s", h.RunnerMode, h.BatchWidth, h.RNGPolicy)
	}
	ha, ra, err := core.LoadResultsFileWithHeader(parts[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 1
	}
	hb, rb, err := core.LoadResultsFileWithHeader(parts[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		return 1
	}
	fmt.Printf("campaign: comparing %s (%s) vs %s (%s)\n",
		parts[0], describe(ha), parts[1], describe(hb))

	inA := make(map[string]bool, len(ra))
	byID := make(map[string]core.CaseResult, len(rb))
	for _, cr := range rb {
		byID[cr.Case.ID] = cr
	}
	var diffs int
	for _, a := range ra {
		inA[a.Case.ID] = true
		b, ok := byID[a.Case.ID]
		switch {
		case !ok:
			diffs++
			fmt.Fprintf(os.Stderr, "campaign: case %s only in %s\n", a.Case.ID, parts[0])
		case a.Err != b.Err:
			diffs++
			fmt.Fprintf(os.Stderr, "campaign: case %s: err %q vs %q\n", a.Case.ID, a.Err, b.Err)
		case !reflect.DeepEqual(a.Result, b.Result):
			diffs++
			fmt.Fprintf(os.Stderr, "campaign: case %s: results differ:\n  %s: %+v\n  %s: %+v\n",
				a.Case.ID, parts[0], a.Result, parts[1], b.Result)
		}
	}
	for _, b := range rb {
		if !inA[b.Case.ID] {
			diffs++
			fmt.Fprintf(os.Stderr, "campaign: case %s only in %s\n", b.Case.ID, parts[1])
		}
	}
	if diffs > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %d case(s) differ\n", diffs)
		return 1
	}
	fmt.Printf("campaign: %d cases bit-identical\n", len(ra))
	return 0
}
