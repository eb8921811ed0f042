// Package store implements the fingerprint-keyed content-addressed
// result store behind cached campaigns: one JSON object per case
// fingerprint (internal/spec.Fingerprint), laid out in 256 two-hex-char
// shard directories, written atomically (temp file + rename) and
// indexed by an append-only log. Any campaign whose compiled grid
// overlaps a stored one — ablations share most cells — hits the store
// instead of re-simulating; cmd/campaign's -resume results-file replay
// is the degenerate single-file form of the same idea.
//
// Layout under the root directory:
//
//	objects/<hh>/<fingerprint>.json   one core.CaseResult per object
//	index.log                         "v1 <fingerprint> <size> <caseID>" lines,
//	                                  "v1 <fingerprint> drop" tombstones
//
// The index is a cache of the object tree, never the source of truth: a
// missing index, an unparsable line or a torn tail (a crash mid-append)
// makes Open rebuild it by scanning the shards, and every Get re-reads
// and verifies the object itself — a corrupt or truncated object is
// dropped and reported as a miss, mirroring core.LoadPartialResults'
// stance that interrupted writes cost a re-run, never an error. A drop
// appends a tombstone, so the next Open no longer counts the object.
// Nothing is evicted; deleting objects by hand is safe, since a missing
// object is a miss.
package store

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"uavres/internal/core"
	"uavres/internal/obs"
)

// indexVersion tags index.log lines so a future layout change cannot be
// misread as today's.
const indexVersion = "v1"

// tombstone stands in an index line's size field to record a drop.
const tombstone = "drop"

// Stats is one point-in-time view of the store: persistent contents
// plus this session's traffic.
type Stats struct {
	// Objects and Bytes describe the persistent contents.
	Objects int
	Bytes   int64
	// Hits, Misses, and Puts count this session's traffic.
	Hits   int64
	Misses int64
	Puts   int64
	// Corrupt counts objects dropped this session because they failed
	// verification on read.
	Corrupt int64
}

// Store is the on-disk content-addressed result store. It implements
// core.ResultCache. All methods are safe for concurrent use from one
// process; cross-process writers stay consistent through the atomic
// rename (two processes racing the same fingerprint write identical
// content).
type Store struct {
	root string

	mu      sync.Mutex
	sizes   map[string]int64 // fingerprint -> object size; guarded by mu
	indexF  *os.File         // append handle for index.log; guarded by mu
	hits    int64            // guarded by mu
	misses  int64            // guarded by mu
	puts    int64            // guarded by mu
	corrupt int64            // guarded by mu
	err     error            // first persistence error (see Err); guarded by mu
}

// Open creates (or reopens) the store rooted at dir. A clean index is
// loaded; a missing, corrupt or torn one is rebuilt by scanning the
// object tree, so the append handle always starts on a line boundary.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{root: dir}
	sizes, ok := s.loadIndex()
	if !ok {
		var err error
		if sizes, err = s.scanObjects(); err != nil {
			return nil, err
		}
		if err := s.rewriteIndex(sizes); err != nil {
			return nil, err
		}
	}
	s.sizes = sizes
	f, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening index: %w", err)
	}
	s.indexF = f
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.root, "index.log") }

// objectPath fans fingerprints out over 256 shard directories so no
// single directory grows to millions of entries at grid scale.
func (s *Store) objectPath(hash string) string {
	shard := hash
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(s.root, "objects", shard, hash+".json")
}

// validHash accepts lowercase-hex fingerprints only: the hash becomes a
// file name, so anything else (path separators above all) is rejected.
func validHash(hash string) bool {
	if len(hash) < 4 || len(hash) > 128 {
		return false
	}
	for _, r := range hash {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// loadIndex reads index.log, replaying puts and tombstones in order.
// ok=false means the index is absent or untrustworthy and must be
// rebuilt: a malformed line anywhere, or a final line without its
// newline. A torn tail (a crashed append) can still parse when it breaks
// inside the case ID, and the next append would join it and be
// swallowed into that ID, so it is never kept.
func (s *Store) loadIndex() (map[string]int64, bool) {
	data, err := os.ReadFile(s.indexPath())
	if err != nil || (len(data) > 0 && data[len(data)-1] != '\n') {
		return nil, false
	}
	sizes := make(map[string]int64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 4)
		if len(fields) < 3 || fields[0] != indexVersion || !validHash(fields[1]) {
			return nil, false
		}
		if fields[2] == tombstone && len(fields) == 3 {
			delete(sizes, fields[1])
			continue
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || size < 0 {
			return nil, false
		}
		sizes[fields[1]] = size
	}
	return sizes, true
}

// scanObjects rebuilds the index map from the object tree.
func (s *Store) scanObjects() (map[string]int64, error) {
	sizes := make(map[string]int64)
	root := filepath.Join(s.root, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".json") {
			return err
		}
		hash := strings.TrimSuffix(d.Name(), ".json")
		if !validHash(hash) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // racing deletion: skip
		}
		sizes[hash] = info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning objects: %w", err)
	}
	return sizes, nil
}

// rewriteIndex writes a fresh index.log atomically from the given map.
func (s *Store) rewriteIndex(sizes map[string]int64) error {
	hashes := make([]string, 0, len(sizes))
	for h := range sizes {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	var b strings.Builder
	for _, h := range hashes {
		fmt.Fprintf(&b, "%s %s %d\n", indexVersion, h, sizes[h])
	}
	tmp, err := os.CreateTemp(s.root, "index-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.WriteString(b.String()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.indexPath()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Get returns the stored result for a fingerprint. A miss returns
// ok=false with a nil error; an object that fails verification (corrupt
// JSON, truncated write, content that does not carry the requested
// fingerprint) is dropped from the store and reported as a miss — a
// cache must cost a re-run, never a failed campaign.
func (s *Store) Get(hash string) (core.CaseResult, bool, error) {
	if !validHash(hash) {
		return core.CaseResult{}, false, nil
	}
	s.mu.Lock()
	_, known := s.sizes[hash]
	s.mu.Unlock()
	if !known {
		s.note(&s.misses)
		return core.CaseResult{}, false, nil
	}
	data, err := os.ReadFile(s.objectPath(hash))
	if err != nil {
		s.drop(hash)
		s.note(&s.misses)
		return core.CaseResult{}, false, nil
	}
	var res core.CaseResult
	if err := json.Unmarshal(data, &res); err != nil || res.Case.Hash != hash || res.Case.ID == "" {
		s.drop(hash)
		s.note(&s.misses, &s.corrupt)
		return core.CaseResult{}, false, nil
	}
	s.note(&s.hits)
	return res, true, nil
}

// Put stores one finished result under its fingerprint. Hashless and
// errored results are rejected (they are not reusable facts about the
// experiment); duplicate puts are no-ops — objects are immutable, two
// writers of one fingerprint produce identical content by construction.
func (s *Store) Put(res core.CaseResult) error {
	hash := res.Case.Hash
	if !validHash(hash) {
		return fmt.Errorf("store: refusing to store case %q without a valid fingerprint", res.Case.ID)
	}
	if res.Err != "" {
		return fmt.Errorf("store: refusing to store errored case %q (%s)", res.Case.ID, res.Err)
	}
	s.mu.Lock()
	_, exists := s.sizes[hash]
	s.mu.Unlock()
	if exists {
		return nil
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encoding case %q: %w", res.Case.ID, err)
	}
	path := s.objectPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Atomic publish: a reader either sees the complete object or none.
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.sizes[hash] = int64(len(data))
	s.puts++
	_, err = fmt.Fprintf(s.indexF, "%s %s %d %s\n", indexVersion, hash, len(data), res.Case.ID)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("store: appending index: %w", err)
	}
	return nil
}

// Lookup implements core.ResultCache over Get.
func (s *Store) Lookup(hash string) (core.CaseResult, bool) {
	res, ok, _ := s.Get(hash)
	return res, ok
}

// Store implements core.ResultCache over Put: persistence failures are
// latched (see Err) instead of failing the campaign mid-flight.
func (s *Store) Store(res core.CaseResult) {
	if err := s.Put(res); err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
	}
}

// Err returns the first persistence error swallowed by the
// core.ResultCache surface, so a campaign can fail loudly at the end
// rather than silently running an unwritable cache.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// drop forgets a fingerprint, records a tombstone in the index so a
// reopen forgets it too, and removes its object file (best effort).
func (s *Store) drop(hash string) {
	s.mu.Lock()
	if _, known := s.sizes[hash]; known {
		delete(s.sizes, hash)
		if _, err := fmt.Fprintf(s.indexF, "%s %s %s\n", indexVersion, hash, tombstone); err != nil && s.err == nil {
			s.err = fmt.Errorf("store: appending index: %w", err)
		}
	}
	s.mu.Unlock()
	os.Remove(s.objectPath(hash))
}

// note bumps session counters under the lock.
func (s *Store) note(counters ...*int64) {
	s.mu.Lock()
	for _, c := range counters {
		*c++
	}
	s.mu.Unlock()
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Objects: len(s.sizes),
		Hits:    s.hits,
		Misses:  s.misses,
		Puts:    s.puts,
		Corrupt: s.corrupt,
	}
	for _, size := range s.sizes {
		st.Bytes += size
	}
	return st
}

// RegisterMetrics exposes the store's persistent size and session
// traffic on an obs registry, alongside the runner's campaign_cache_*
// counters in the same metrics snapshot.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("store_objects", func() float64 { return float64(s.Stats().Objects) })
	reg.GaugeFunc("store_bytes", func() float64 { return float64(s.Stats().Bytes) })
	reg.GaugeFunc("store_corrupt_dropped", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.corrupt)
	})
}

// Close flushes and closes the index append handle. The store must not
// be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.indexF == nil {
		return nil
	}
	err := s.indexF.Close()
	s.indexF = nil
	if err != nil {
		return fmt.Errorf("store: closing index: %w", err)
	}
	return nil
}
