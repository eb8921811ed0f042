package store

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/sim"
	"uavres/internal/spec"
)

// result fabricates one stored-shape case result: a fingerprinted case
// with the heavy diagnostics payload a real campaign writes.
func result(id string, hash string, outcome sim.Outcome) core.CaseResult {
	return core.CaseResult{
		Case: core.Case{
			ID:        id,
			MissionID: 1,
			Seed:      31,
			Hash:      hash,
			Injection: &faultinject.Injection{
				Primitive: faultinject.Freeze,
				Target:    faultinject.TargetGyro,
				Start:     90 * time.Second,
				Duration:  5 * time.Second,
				Seed:      7,
			},
		},
		Result: sim.Result{
			MissionID:         1,
			Outcome:           outcome,
			FlightDurationSec: 123.456789012345,
			DistanceKm:        1.0625,
			InnerViolations:   2,
			Diagnostics: &sim.Diagnostics{
				FirstInnerViolationSec: 91.25,
				FirstOuterViolationSec: -1,
				DistanceAtFirstOuterKm: -1,
				MaxTiltDeg:             44.5,
				GPSFusions:             1200,
				TraceSummary:           map[string]int{"phase": 4, "violation": 2},
			},
		},
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	want := result("m01-gyro-freeze-5s", "00deadbeef00dead", sim.OutcomeFailsafe)
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(want.Case.Hash)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, want)
	}
	// Duplicate puts are no-ops, not errors.
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Objects != 1 || st.Puts != 1 || st.Hits != 1 {
		t.Fatalf("stats after one put + one hit: %+v", st)
	}
	// The object lands in its two-hex-char shard directory.
	if _, err := os.Stat(filepath.Join(s.root, "objects", "00", want.Case.Hash+".json")); err != nil {
		t.Fatalf("object not at objects/<hh>/<hash>.json: %v", err)
	}
}

func TestRejectsHashlessAndErroredResults(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	hashless := result("m01-gold", "", sim.OutcomeCompleted)
	if err := s.Put(hashless); err == nil {
		t.Error("hashless result stored")
	}
	errored := result("m01-gold", "00deadbeef00dead", sim.OutcomeCompleted)
	errored.Err = "cancelled"
	if err := s.Put(errored); err == nil {
		t.Error("errored result stored")
	}
	// Path traversal can never reach the filesystem.
	if _, ok, _ := s.Get("../../etc/passwd"); ok {
		t.Error("invalid hash reported a hit")
	}
}

func TestReopenLoadsIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	a := result("a", "aa11223344556677", sim.OutcomeCompleted)
	b := result("b", "bb11223344556677", sim.OutcomeCrash)
	for _, r := range []core.CaseResult{a, b} {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if st := s2.Stats(); st.Objects != 2 {
		t.Fatalf("reopened stats: %+v", st)
	}
	got, ok, _ := s2.Get("bb11223344556677")
	if !ok || got.Case.ID != "b" {
		t.Fatalf("reopened get: ok=%v got=%+v", ok, got)
	}
}

func TestRebuildsMissingOrCorruptIndex(t *testing.T) {
	for name, garble := range map[string]func(path string){
		"missing":  func(p string) { os.Remove(p) },
		"mid-file": func(p string) { os.WriteFile(p, []byte("v1 not hex garbage\nv1 aa11223344556677 10 a\n"), 0o644) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			if err := s.Put(result("a", "aa11223344556677", sim.OutcomeCompleted)); err != nil {
				t.Fatal(err)
			}
			s.Close()
			garble(filepath.Join(dir, "index.log"))
			s2 := mustOpen(t, dir)
			if got, ok, _ := s2.Get("aa11223344556677"); !ok || got.Case.ID != "a" {
				t.Fatalf("%s index: object lost (ok=%v)", name, ok)
			}
		})
	}
}

// TestTornIndexTailDropped: a crash mid-append leaves a half-written
// final line. The store keeps only the clean prefix, and the next
// session's first put starts on a fresh line, so it survives the
// following reopen. A line torn inside the case ID still parses, and a
// put appended to it would vanish into its case ID.
func TestTornIndexTailDropped(t *testing.T) {
	for name, tail := range map[string]string{
		"no-size":    "v1 bb112233445566",
		"in-case-id": "v1 cc11223344556677 512 m0",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			if err := s.Put(result("a", "aa11223344556677", sim.OutcomeCompleted)); err != nil {
				t.Fatal(err)
			}
			s.Close()
			f, err := os.OpenFile(filepath.Join(dir, "index.log"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tail) // torn: no newline
			f.Close()

			s2 := mustOpen(t, dir)
			if st := s2.Stats(); st.Objects != 1 {
				t.Fatalf("torn tail not dropped: %+v", st)
			}
			e := result("e", "ee11223344556677", sim.OutcomeCrash)
			if err := s2.Put(e); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			s3 := mustOpen(t, dir)
			if _, ok, _ := s3.Get(e.Case.Hash); !ok {
				t.Error("put after a torn index tail lost across reopen")
			}
			if st := s3.Stats(); st.Objects != 2 {
				t.Errorf("store counts %d objects, want 2: %+v", st.Objects, st)
			}
		})
	}
}

// TestCorruptObjectIsAMiss: a garbled object file must cost a re-run,
// never an error — and the poisoned object is dropped so the slot heals.
func TestCorruptObjectIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	r := result("a", "aa11223344556677", sim.OutcomeCompleted)
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", "aa", "aa11223344556677.json")
	if err := os.WriteFile(path, []byte(`{"case": {"id": "a", "hash": "tru`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(r.Case.Hash); ok || err != nil {
		t.Fatalf("corrupt object: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Objects != 0 {
		t.Fatalf("corrupt object not dropped: %+v", st)
	}
	// A swapped object (valid JSON, wrong fingerprint inside) is dropped
	// the same way: content addressing is verified, not trusted.
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	swapped := result("b", "bb11223344556677", sim.OutcomeCrash)
	data := strings.ReplaceAll(`{"case":{"id":"b","mission_id":1,"seed":31,"hash":"HB"},"result":{"mission_id":1,"outcome":2,"flight_duration_sec":1,"distance_km":0,"inner_violations":0,"outer_violations":0,"waypoints_reached":0}}`, "HB", swapped.Case.Hash)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(r.Case.Hash); ok {
		t.Fatal("object carrying a foreign fingerprint reported as a hit")
	}
}

// TestDropSurvivesReopen: an object deleted by hand is dropped on its
// next Get, and the drop is recorded in the index, so later sessions
// count only the survivor.
func TestDropSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	a := result("a", "aa11223344556677", sim.OutcomeCompleted)
	b := result("b", "bb11223344556677", sim.OutcomeCrash)
	for _, r := range []core.CaseResult{a, b} {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(filepath.Join(dir, "objects", "aa", a.Case.Hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "objects", "bb", b.Case.Hash+".json")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(b.Case.Hash); ok || err != nil {
		t.Fatalf("deleted object: ok=%v err=%v", ok, err)
	}
	s.Close()
	for i := 1; i <= 2; i++ {
		s := mustOpen(t, dir)
		if st := s.Stats(); st.Objects != 1 || st.Bytes != info.Size() {
			t.Errorf("reopen %d: Objects=%d Bytes=%d, want 1 and %d", i, st.Objects, st.Bytes, info.Size())
		}
		s.Close()
	}
	// Both reopens replayed the tombstone rather than rebuilding the
	// index from the object tree, which would have rewritten it.
	if index, _ := os.ReadFile(filepath.Join(dir, "index.log")); !strings.Contains(string(index), b.Case.Hash+" drop\n") {
		t.Errorf("index lost its tombstone:\n%s", index)
	}
}

// gyroGrid is one mission's gyro grid: 1 target x 2 primitives x 2
// durations + 1 gold run = 5 cases.
const gyroGrid = `{
 "version": 1,
 "name": "store-test",
 "missions": [1],
 "matrix": {"targets": ["gyro"], "primitives": ["freeze", "zeros"], "durations_sec": [2, 5]}
}`

// runGrid runs a grid spec through core.Runner with s as its cache, as
// campaign -store does, and returns the results with the cache's hit and
// miss counts for this run.
func runGrid(t *testing.T, s *Store, specJSON string) (results []core.CaseResult, hits, misses int64) {
	t.Helper()
	cs, err := spec.Parse([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	cases, err := cs.Compile(mission.Valencia())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cs.Overrides.Apply(&cfg)
	spec.AttachFingerprints(cases, cfg)
	reg := obs.NewRegistry()
	r := core.NewRunner()
	r.Config = cfg
	r.Cache = s
	r.Obs = reg
	results = r.RunAll(context.Background(), cases)
	for _, cr := range results {
		if cr.Err != "" {
			t.Fatalf("case %s: %s", cr.Case.ID, cr.Err)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return results, reg.Counter("campaign_cache_hits_total").Value(), reg.Counter("campaign_cache_misses_total").Value()
}

// TestRunnerOverStoreColdThenWarm: a cold run simulates every case and
// files each one; a warm rerun replays them all with identical results.
func TestRunnerOverStoreColdThenWarm(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	cold, hits, misses := runGrid(t, s, gyroGrid)
	if len(cold) != 5 || hits != 0 || misses != 5 {
		t.Fatalf("cold run: %d cases, %d hits, %d misses; want 5, 0, 5", len(cold), hits, misses)
	}
	if n := s.Stats().Objects; n != 5 {
		t.Fatalf("store holds %d objects after the cold run, want 5", n)
	}
	warm, hits, misses := runGrid(t, s, gyroGrid)
	if hits != 5 || misses != 0 {
		t.Fatalf("warm run: %d hits, %d misses; want 5, 0", hits, misses)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Error("warm run's results differ from the cold run's")
	}
}

// TestRunnerOverStoreRunsOnlyNewCells: a grid widened by one duration
// over a warmed store simulates only its two new cells.
func TestRunnerOverStoreRunsOnlyNewCells(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if _, _, misses := runGrid(t, s, gyroGrid); misses != 5 {
		t.Fatalf("first run: %d misses, want 5", misses)
	}
	wider := strings.Replace(gyroGrid, `"durations_sec": [2, 5]`, `"durations_sec": [2, 5, 10]`, 1)
	wide, hits, misses := runGrid(t, s, wider)
	if len(wide) != 7 || hits != 5 || misses != 2 {
		t.Fatalf("widened run: %d cases, %d hits, %d misses; want 7, 5, 2", len(wide), hits, misses)
	}
}

func TestResultCacheSurface(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	var cache core.ResultCache = s
	r := result("a", "aa11223344556677", sim.OutcomeCompleted)
	cache.Store(r)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Lookup(r.Case.Hash)
	if !ok || got.Case.ID != "a" {
		t.Fatalf("lookup: ok=%v got=%+v", ok, got)
	}
	if _, ok := cache.Lookup("ee11223344556677"); ok {
		t.Error("phantom hit")
	}

	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	snap := reg.Snapshot()
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "store_objects" && g.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("store_objects gauge missing or wrong: %+v", snap.Gauges)
	}
}

// FuzzOpenIndex replays arbitrary index.log bytes over a store holding
// one real object (seed corpus under testdata/fuzz/FuzzOpenIndex). Open
// never fails, Get never returns a result filed under another
// fingerprint, and a lookup-then-put, the runner's order, survives a
// reopen whatever the index held.
func FuzzOpenIndex(f *testing.F) {
	stored := result("a", "aa11223344556677", sim.OutcomeCompleted)
	fresh := result("e", "ee11223344556677", sim.OutcomeCrash)
	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		if err := s.Put(stored); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := os.WriteFile(filepath.Join(dir, "index.log"), index, 0o644); err != nil {
			t.Fatal(err)
		}

		s2 := mustOpen(t, dir)
		keys := []string{stored.Case.Hash}
		for h := range s2.sizes {
			keys = append(keys, h)
		}
		for _, h := range keys {
			if got, ok, err := s2.Get(h); err != nil || (ok && got.Case.Hash != h) {
				t.Fatalf("Get(%s) = %q, ok=%v, err=%v", h, got.Case.Hash, ok, err)
			}
		}
		if _, ok, _ := s2.Get(fresh.Case.Hash); ok {
			t.Fatal("phantom hit before the put")
		}
		if err := s2.Put(fresh); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		if _, ok, _ := mustOpen(t, dir).Get(fresh.Case.Hash); !ok {
			t.Fatalf("put lost across reopen over index %q", index)
		}
	})
}
