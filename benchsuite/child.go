package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"uavres/internal/core"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/spec"
	"uavres/internal/store"
)

// workers is the runner pool size every campaign runs with: the CPU
// count of the host class the benchmark was sized on.
const workers = 2

// repReport is what one child process reports back on its stdout.
type repReport struct {
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	Cases      int     `json:"cases"`
	// Layers is filled by a traced rep only.
	Layers *layerObs `json:"layers,omitempty"`
}

// campaign is a compiled, configured campaign ready for RunAll.
type campaign struct {
	spec   spec.CampaignSpec
	cases  []core.Case
	runner *core.Runner
	store  *store.Store
}

// prepare does what cmd/campaign does before RunAll: compile the spec,
// apply its overrides, fingerprint every case under the final config and,
// when storeDir is set, open the result store. A non-empty only keeps
// the cases it selects. Spans land under root when tr is non-nil.
func prepare(w workload, seed int64, storeDir string, only []spec.Selector, tr *obs.Tracer, root obs.SpanID) (*campaign, error) {
	s, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	span := tr.Start("spec.compile", root)
	cases, err := s.Compile(mission.Valencia())
	tr.End(span)
	if err != nil {
		return nil, err
	}
	cases = spec.ApplySelectors(cases, only)
	if len(cases) == 0 {
		return nil, fmt.Errorf("%s: no cases selected", w.name)
	}
	runner := core.NewRunner()
	runner.Workers = workers
	s.Overrides.Apply(&runner.Config)
	span = tr.Start("spec.fingerprint", root)
	spec.AttachFingerprints(cases, runner.Config)
	tr.End(span)
	c := &campaign{spec: s, cases: cases, runner: runner}
	if storeDir != "" {
		span = tr.Start("store.open", root)
		c.store, err = store.Open(storeDir)
		tr.End(span)
		if err != nil {
			return nil, err
		}
		runner.Cache = c.store
	}
	return c, nil
}

// header is the results-file header cmd/campaign writes for the same run.
func (c *campaign) header() core.ResultsHeader {
	pol, _ := mathx.ParseNormPolicy(c.runner.Config.RNGPolicy) // validated by Compile
	return core.ResultsHeader{
		SpecHash:   c.spec.Hash(),
		RNGPolicy:  pol.String(),
		RunnerMode: "batch",
		BatchWidth: core.DefaultBatchWidth,
		Workers:    c.runner.Workers,
	}
}

// runChild executes one child role and prints its report as JSON.
//
//	child rep     -workload W -seed S -dir D [-trace]  one timed campaign
//	child setup   -workload W -seed S -dir D           set-up only
//	child prefill -workload W -seed S -dir D           fill D/store with the fixture
//
// D/store, when present, is the result store the campaign runs against;
// a rep writes D/results.json (and D/trace.json when traced).
func runChild(args []string, start time.Time) error {
	if len(args) == 0 {
		return fmt.Errorf("child: missing role")
	}
	role := args[0]
	fs := flag.NewFlagSet("child "+role, flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	dir := fs.String("dir", "", "working directory of this child")
	trace := fs.Bool("trace", false, "trace the rep")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	storeDir := ""
	if len(w.fixture) > 0 {
		storeDir = filepath.Join(*dir, "store")
	}
	var rep repReport
	switch role {
	case "rep":
		rep, err = runRep(w, *seed, *dir, storeDir, *trace, start)
	case "setup":
		var c *campaign
		if c, err = prepare(w, *seed, storeDir, nil, nil, 0); err == nil {
			rep = repReport{SetupS: time.Since(start).Seconds(), Cases: len(c.cases)}
			err = c.close()
		}
	case "prefill":
		err = prefill(w, *seed, storeDir)
	default:
		err = fmt.Errorf("child: unknown role %q", role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// close closes the campaign's store, failing on any put the store's
// cache interface swallowed.
func (c *campaign) close() error {
	if c.store == nil {
		return nil
	}
	if err := c.store.Err(); err != nil {
		return err
	}
	return c.store.Close()
}

// prefill runs the workload's fixture cases into storeDir.
func prefill(w workload, seed int64, storeDir string) error {
	c, err := prepare(w, seed, storeDir, w.fixture, nil, 0)
	if err != nil {
		return err
	}
	for _, res := range c.runner.RunAll(context.Background(), c.cases) {
		if res.Err != "" {
			return fmt.Errorf("prefill: case %s: %s", res.Case.ID, res.Err)
		}
	}
	return c.close()
}

// runRep runs one campaign the way cmd/campaign does, streaming results
// to dir/results.json. Set-up is timed from process start to RunAll
// entry; the run phase from RunAll entry until the results file is
// closed.
func runRep(w workload, seed int64, dir, storeDir string, trace bool, start time.Time) (repReport, error) {
	clock := func() float64 { return time.Since(start).Seconds() }
	var (
		tr   *obs.Tracer
		root obs.SpanID
	)
	if trace {
		tr = obs.NewTracer(clock, 4096)
		root = tr.Start("workload", 0, obs.StrAttr("name", w.name), obs.NumAttr("seed", float64(seed)))
	}
	c, err := prepare(w, seed, storeDir, nil, tr, root)
	if err != nil {
		return repReport{}, err
	}
	reg := obs.NewRegistry()
	c.runner.Obs = reg
	c.runner.Clock = clock
	var cache *tracedCache
	if trace {
		c.runner.Trace = tr
		c.runner.TraceRoot = root
		if c.store != nil {
			cache = &tracedCache{st: c.store, tr: tr, root: root, bytes0: c.store.Stats().Bytes}
			c.runner.Cache = cache
		}
	}
	stream, err := core.NewResultsFileWriter(filepath.Join(dir, "results.json"))
	if err != nil {
		return repReport{}, err
	}
	streamErr := stream.WriteHeader(c.header())
	c.runner.OnResult = func(res core.CaseResult) {
		span := tr.Start("results.write", root)
		if err := stream.Write(res); err != nil && streamErr == nil {
			streamErr = err
		}
		tr.End(span)
	}

	rep := repReport{SetupS: clock(), Cases: len(c.cases)}
	cpu0, err := cpuSeconds()
	if err != nil {
		return repReport{}, err
	}
	t0 := clock()
	results := c.runner.RunAll(context.Background(), c.cases)
	if err := stream.Close(); streamErr == nil {
		streamErr = err
	}
	rep.WallS = clock() - t0
	cpu1, err := cpuSeconds()
	if err != nil {
		return repReport{}, err
	}
	rep.CPUS = cpu1 - cpu0
	if streamErr != nil {
		return repReport{}, fmt.Errorf("writing results: %w", streamErr)
	}
	if rep.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return repReport{}, err
	}
	if err := c.close(); err != nil {
		return repReport{}, err
	}
	if trace {
		tr.End(root)
		if rep.Layers, err = observeLayers(c, results, reg, tr, cache); err != nil {
			return repReport{}, err
		}
		if err := writeTrace(tr, filepath.Join(dir, "trace.json")); err != nil {
			return repReport{}, err
		}
	}
	return rep, nil
}

// writeTrace exports the span tree as Perfetto JSON and validates it.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteTraceEvents(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing trace: %w", werr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return obs.ValidateTraceEventJSON(data)
}

// tracedCache wraps the result store with a span per lookup and put and
// counts its traffic. The runner calls Lookup from one goroutine before
// scheduling and Store under its result lock, so plain counters suffice.
type tracedCache struct {
	st     *store.Store
	tr     *obs.Tracer
	root   obs.SpanID
	bytes0 int64

	lookups, hits, puts int
}

func (c *tracedCache) Lookup(hash string) (core.CaseResult, bool) {
	span := c.tr.Start("store.lookup", c.root)
	res, ok := c.st.Lookup(hash)
	c.tr.End(span)
	c.lookups++
	if ok {
		c.hits++
	}
	return res, ok
}

func (c *tracedCache) Store(res core.CaseResult) {
	span := c.tr.Start("store.put", c.root)
	c.st.Store(res)
	c.tr.End(span)
	c.puts++
}
