// Command benchsuite is the campaign benchmark: it runs one workload of
// the fault-injection campaign end to end, measures it, checks that its
// results are right, and prints the metrics as the last line of its
// standard output.
//
// Usage, from the repository root:
//
//	bash benchsuite/run.sh --workload paper-850 --seed 1 --seconds 15 --trace 0
//
// run.sh builds this module into .bench_build/ and runs it. Each
// workload is one campaign run through the calls cmd/campaign makes:
// spec.Compile (whose select clauses pick cases), Overrides.Apply,
// spec.AttachFingerprints, store.Open when the workload has a store, and
// core.Runner.RunAll streaming into a core.ResultsFileWriter.
//
// Workloads (the seed is the spec seed):
//
//   - paper-850: spec.Paper(seed), what users run. 840 of 850 cases fork
//     off one 90 s prefix per mission, so fork/batch and the per-fork EKF,
//     control and physics kernels dominate.
//   - redundancy-750: the redundancy matrix spec (quad/hexa/octo x sensor
//     and actuator faults, rotor FDI and reconfigured allocation). The
//     only workload where physics and allocation cost grow with rotor
//     count.
//   - scattered-starts: a seeded plan of one fault per (mission, start)
//     over 10 missions x 23 starts from 30 s to 195 s, 230 cases selected
//     out of a 9660-cell matrix. No two cases share a prefix, so
//     checkpoint, fork and batch are bypassed (a fork/batch change must
//     show no change here), and spec compile and selection show in
//     set-up.
//   - grid-extend: paper-850 against a result store pre-filled, untimed,
//     with its 2 s and 5 s cells and gold runs (430 hits, 420 misses);
//     every rep starts from a fresh copy of that store. The store read and
//     write paths and the runner's cache partition show here only.
//
// Load: closed loop, one campaign at a time, Runner.Workers = 2. Every
// campaign runs in a fresh child process, so its CPU time and peak RSS
// belong to it alone and the program's caches start cold, as in a user's
// campaign process. Reps repeat while the next one is expected to end
// within --seconds (at least one rep); each metric is the median over the
// reps, printed with min, max and n. Set-up is also measured by nine extra set-up-only children.
//
// End-to-end metrics (--trace 0), with the regression bounds recorded in
// BENCHMARK.json:
//
//   - wall_s: run-phase makespan, RunAll entry to results file closed.
//   - cpu_s: the child's user+system CPU time over the run phase.
//   - setup_s: child start to RunAll entry (compile, select, fingerprint,
//     store open).
//   - peak_rss_mib: the child's maximum resident set size.
//
// A case fails when it is missing or duplicated in the results file,
// carries an error, an unenumerated outcome or a non-finite number, or
// when a straight-through re-run of it (8 seed-chosen cases per run,
// store hits among them on grid-extend) differs in outcome, duration,
// distance, violations, failsafe cause or crash reason. The reps'
// per-case verdicts must also agree bit for bit; their sha256 digest is
// printed.
//
// With --trace 1 one more rep runs with the runner's tracer, metrics
// registry and clock set, plus spans from this program around the spec,
// store and results-write calls; its Perfetto trace is written to
// .bench_build/trace/<workload>.trace.json. The micro-benchmarks of the
// micro package then price the modelled kernel call counts, and the
// per-layer metrics are printed instead of the end-to-end ones.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"uavres/benchsuite/micro"
	"uavres/internal/core"
	"uavres/internal/paperdata"
)

func main() {
	start := time.Now()
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := runChild(os.Args[2:], start); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options configure one benchmark invocation.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	// base holds the work and trace directories.
	base string
	// probes is the number of set-up-only children per invocation.
	probes int
	// microReps and microTime size each micro-benchmark.
	microReps int
	microTime time.Duration
}

func run(args []string, out io.Writer) int {
	fset := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: paper-850, redundancy-750, scattered-starts or grid-extend")
	seed := fset.Int64("seed", 1, "workload seed")
	seconds := fset.Int("seconds", 15, "measure reps for this long (at least one rep)")
	trace := fset.Int("trace", 0, "1 = add a traced rep and print the per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "benchsuite: bad arguments (workload %q, trace %d, seconds %d)\n", *name, *trace, *seconds)
		return 2
	}
	res, err := runWorkload(options{
		workload: w, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		base: ".bench_build", probes: 9, microReps: 3, microTime: 100 * time.Millisecond,
	}, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// suite runs one workload's children.
type suite struct {
	opts options
	exe  string
	dir  string
	out  io.Writer
}

// repSample is one measured rep.
type repSample struct {
	repReport
	stealS   float64
	verdicts map[string]verdict
	failed   int
	// paperHeld counts the paper shape checks that hold (paper-850 only).
	paperHeld, paperChecks int
}

func runWorkload(o options, out io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	w := o.workload
	s := &suite{opts: o, exe: exe, out: out,
		dir: filepath.Join(o.base, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(s.dir)
	fmt.Fprintf(out, "benchsuite: %s seed %d: closed loop, one campaign at a time, %d workers; host %s\n",
		w.name, o.seed, workers, hostWindow())

	plan, err := prepare(w, o.seed, "", nil, nil, 0)
	if err != nil {
		return result{}, err
	}
	fixture := ""
	if len(w.fixture) > 0 {
		fixture = filepath.Join(s.dir, "fixture")
		if _, err := s.child("prefill", fixture); err != nil {
			return result{}, err
		}
	}

	var setups []float64
	if !o.trace {
		probe := filepath.Join(s.dir, "probe")
		if err := s.stage(fixture, probe); err != nil {
			return result{}, err
		}
		for i := 0; i < o.probes; i++ {
			rep, err := s.child("setup", probe)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, rep.SetupS)
		}
	}

	// Reps run while the next one is expected to end within --seconds.
	var reps []repSample
	for t0 := time.Now(); len(reps) == 0 ||
		time.Since(t0).Seconds()*float64(len(reps)+1)/float64(len(reps)) <= o.seconds; {
		r, err := s.rep(len(reps)+1, fixture, plan.cases, false)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
	}
	all := reps
	if o.trace {
		r, err := s.rep(len(reps)+1, fixture, plan.cases, true)
		if err != nil {
			return result{}, err
		}
		all = append(all, r)
	}

	res := result{Metrics: map[string]metric{}}
	ref := all[0].verdicts
	refDigest := digest(ref)
	fmt.Fprintf(out, "  verdict digest %s (%d cases)\n", refDigest, len(ref))
	for _, r := range all {
		res.Attempted += r.Cases
		res.Failed += r.failed
		// Every rep must reproduce the first one's verdicts bit for bit.
		if d := digest(r.verdicts); d != refDigest {
			fmt.Fprintf(out, "  verdict digest MISMATCH: %s\n", d)
			for id, v := range r.verdicts {
				if ref[id] != v {
					res.Failed++
				}
			}
		}
	}
	if all[0].paperChecks > 0 {
		fmt.Fprintf(out, "  paper checks held: %d/%d\n", all[0].paperHeld, all[0].paperChecks)
	}
	checked, mismatched, err := oracle(w, o.seed, all[0].verdicts)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "  straight-through re-check: %d/%d cases identical\n", checked-mismatched, checked)
	res.Attempted += checked
	res.Failed += mismatched
	res.Correct = res.Failed == 0

	if !o.trace {
		for _, r := range reps {
			setups = append(setups, r.SetupS)
		}
		col := func(f func(repSample) float64) []float64 {
			xs := make([]float64, len(reps))
			for i, r := range reps {
				xs[i] = f(r)
			}
			return xs
		}
		s.report(res.Metrics, "wall_s", "s", col(func(r repSample) float64 { return r.WallS }))
		s.report(res.Metrics, "cpu_s", "s", col(func(r repSample) float64 { return r.CPUS }))
		s.report(res.Metrics, "setup_s", "s", setups)
		s.report(res.Metrics, "peak_rss_mib", "MiB", col(func(r repSample) float64 { return r.PeakRSSMiB }))
		return res, nil
	}
	if err := s.layerMetrics(res.Metrics, reps, all[len(all)-1]); err != nil {
		return result{}, err
	}
	return res, nil
}

// report records a metric's median and prints its summary.
func (s *suite) report(m map[string]metric, name, unit string, xs []float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	med := quantile(sorted, 0.5)
	fmt.Fprintf(s.out, "  %-14s median %-12.6g min %-12.6g max %-12.6g n %-3d %s\n",
		name, med, sorted[0], sorted[len(sorted)-1], len(sorted), unit)
	m[name] = metric{Value: med, Unit: unit}
}

// rep runs and checks one campaign in a fresh child.
func (s *suite) rep(n int, fixture string, planned []core.Case, trace bool) (repSample, error) {
	dir := filepath.Join(s.dir, fmt.Sprintf("rep%d", n))
	if err := s.stage(fixture, dir); err != nil {
		return repSample{}, err
	}
	defer os.RemoveAll(dir)
	var extra []string
	if trace {
		extra = append(extra, "-trace")
	}
	steal0 := stealSeconds()
	rep, err := s.child("rep", dir, extra...)
	if err != nil {
		return repSample{}, err
	}
	r := repSample{repReport: rep, stealS: stealSeconds() - steal0}
	results, err := core.LoadResultsFile(filepath.Join(dir, "results.json"))
	if err != nil {
		return repSample{}, err
	}
	r.verdicts, r.failed = checkResults(results, planned)
	if s.opts.workload.name == "paper-850" {
		for _, c := range paperdata.Compare(results) {
			r.paperChecks++
			if c.Holds {
				r.paperHeld++
			}
		}
	}
	kind := "rep"
	if trace {
		kind = "traced rep"
		traceDir := filepath.Join(s.opts.base, "trace")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return repSample{}, err
		}
		path := filepath.Join(traceDir, s.opts.workload.name+".trace.json")
		if err := os.Rename(filepath.Join(dir, "trace.json"), path); err != nil {
			return repSample{}, err
		}
		fmt.Fprintf(s.out, "  trace written to %s\n", path)
	}
	fmt.Fprintf(s.out, "  %s %d: %d cases, %d failed; setup %.4f s, wall %.3f s, cpu %.3f s, peak rss %.1f MiB, steal %.2f s\n",
		kind, n, rep.Cases, r.failed, rep.SetupS, rep.WallS, rep.CPUS, rep.PeakRSSMiB, r.stealS)
	if rep.CPUS > 0 && r.stealS > stealWarnShare*rep.CPUS {
		fmt.Fprintf(s.out, "  WARNING: host steal %.2f s is %.1f%% of the rep's %.2f CPU-seconds; its times measure the host too\n",
			r.stealS, 100*r.stealS/rep.CPUS, rep.CPUS)
	}
	return r, nil
}

// stage creates dir holding a fresh copy of the fixture's store.
func (s *suite) stage(fixture, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if fixture != "" {
		if err := copyTree(filepath.Join(fixture, "store"), filepath.Join(dir, "store")); err != nil {
			return err
		}
	}
	// Write back the copy and earlier reps' files now, so the kernel's
	// writeback does not compete with the next timed campaign.
	syscall.Sync()
	return nil
}

// child runs one child role of this executable in dir and returns its
// report.
func (s *suite) child(role, dir string, extra ...string) (repReport, error) {
	args := append([]string{"child", role, "-workload", s.opts.workload.name,
		"-seed", fmt.Sprint(s.opts.seed), "-dir", dir}, extra...)
	cmd := exec.Command(s.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return repReport{}, fmt.Errorf("child %s: %w", role, err)
	}
	var rep repReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return repReport{}, fmt.Errorf("child %s report: %w", role, err)
	}
	return rep, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// layerMetrics prices the traced rep's modelled kernel calls with the
// micro-benchmarks and records every per-layer metric.
func (s *suite) layerMetrics(m map[string]metric, reps []repSample, traced repSample) error {
	l := traced.Layers
	if l == nil {
		return fmt.Errorf("traced rep reported no layers")
	}
	var walls, cpus []float64
	steal, cpuAll := traced.stealS, traced.CPUS
	for _, r := range reps {
		walls = append(walls, r.WallS)
		cpus = append(cpus, r.CPUS)
		steal += r.stealS
		cpuAll += r.CPUS
	}
	sort.Float64s(walls)
	sort.Float64s(cpus)
	cpu := quantile(cpus, 0.5)
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	set("spec.compile_s", "s", l.CompileS)
	set("spec.fingerprint_s", "s", l.FingerprintS)
	set("spec.cases", "count", float64(traced.Cases))
	set("store.hit_ratio", "ratio", ratio(float64(l.StoreHits), float64(l.StoreLookups)))
	set("store.bytes_written", "bytes", float64(l.StoreBytesWritten))
	set("core.prefixes_built", "count", float64(l.PrefixesBuilt))
	set("core.cases_forked", "count", float64(l.CasesForked))
	set("core.cases_straight", "count", float64(l.CasesStraight))
	set("core.cases_batched", "count", float64(l.CasesBatched))
	set("core.fork_share", "ratio", ratio(float64(l.CasesForked), float64(l.CasesForked+l.CasesStraight)))
	set("core.batch_width_mean", "count", ratio(float64(l.CasesBatched), float64(l.Batches)))
	set("core.checkpoint_stage_s", "s", l.CheckpointStageS)
	set("core.run_stage_s", "s", l.RunStageS)
	set("core.worker_idle_s", "s", l.WorkerIdleS)
	set("core.results_write_us_p50", "us", l.WriteUsP50)
	set("core.results_write_us_p90", "us", l.WriteUsP90)
	set("sim.vehicle_s_simulated", "sim_s", l.SimulatedS)
	set("sim.vehicle_s_delivered", "sim_s", l.DeliveredS)
	set("sim.share_ratio", "ratio", ratio(l.DeliveredS, l.SimulatedS))
	set("sim.cpu_us_per_vehicle_s", "us", ratio(cpu*1e6, l.SimulatedS))
	set("bench.trace_overhead", "ratio", traced.WallS/quantile(walls, 0.5)-1)
	set("bench.steal_share", "ratio", ratio(steal, cpuAll))

	fmt.Fprintf(s.out, "  micro-benchmarks (%d reps at %v; min per op, spread, allocs/op):\n", s.opts.microReps, s.opts.microTime)
	attributed := l.WriteS
	for _, mb := range micro.All() {
		r, err := micro.Run(mb, s.opts.microReps, s.opts.microTime)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "    %-26s %12.4g %-2s spread %5.1f%% %6d allocs\n", r.Name, r.PerOp(), r.Unit, 100*r.Spread, r.AllocsPerOp)
		set(r.Name+"_"+r.Unit, r.Unit, r.PerOp())
		if mb.Name == "sim.ten_seconds" {
			set("sim.ten_seconds_allocs", "count", float64(r.AllocsPerOp))
		}
		calls, ok := l.Calls[mb.Name]
		if !ok {
			continue
		}
		share := ratio(calls*r.MinNs/1e9, cpu)
		set(mb.Name+".calls", "count", calls)
		set(mb.Name+".share", "ratio", share)
		if !nestedKernels[mb.Name] {
			attributed += calls * r.MinNs / 1e9
		}
	}
	set("sim.unattributed_share", "ratio", 1-ratio(attributed, cpu))

	fmt.Fprintf(s.out, "  per-layer self time of the traced rep (span name, count, total, self):\n")
	for _, st := range l.Self {
		fmt.Fprintf(s.out, "    %-18s %6d %10.4f s %10.4f s\n", st.Name, st.Count, st.TotalS, st.SelfS)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(s.out, "  per-layer metrics (cpu_s %.3f s is the median untraced rep's):\n", cpu)
	for _, name := range names {
		fmt.Fprintf(s.out, "    %-32s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	return nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	//lint:allow floatcmp exact zero guard before a division
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates the q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
