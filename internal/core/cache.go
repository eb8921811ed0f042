package core

// ResultCache is a fingerprint-keyed cache of finished case results the
// Runner consults before scheduling any simulation. A case whose
// content hash (Case.Hash, see internal/spec.Fingerprint) resolves to a
// stored result is returned as a cache hit without touching a worker;
// every freshly simulated result is offered back through Store. There
// are two implementations: internal/store's content-addressed on-disk
// store, and NewMemoryCache, which cmd/campaign -resume seeds with the
// prior results file so a resumed run replays what the file already
// holds and simulates only the rest.
//
// Lookup must be safe for concurrent use with Store only if the caller
// makes it so: the Runner performs all lookups up front on one
// goroutine and serializes Store calls under the same lock as OnResult.
type ResultCache interface {
	// Lookup returns the stored result for a content hash. A miss — or
	// anything the implementation cannot verify (corrupt object, torn
	// write) — returns ok=false; the case then simulates normally.
	Lookup(hash string) (CaseResult, bool)
	// Store offers a finished result for caching. Implementations must
	// tolerate duplicate offers (two campaigns racing the same cell) and
	// must never fail the campaign: persistence errors are surfaced out
	// of band, not returned.
	Store(res CaseResult)
}

// memoryCache is the map-backed ResultCache behind -resume and the
// runner tests.
type memoryCache struct {
	byHash map[string]CaseResult
}

// NewMemoryCache builds an in-memory ResultCache seeded with prior
// results (hashless entries are ignored — they can never be looked up).
func NewMemoryCache(prior []CaseResult) ResultCache {
	m := &memoryCache{byHash: make(map[string]CaseResult, len(prior))}
	for _, cr := range prior {
		if cr.Case.Hash != "" {
			m.byHash[cr.Case.Hash] = cr
		}
	}
	return m
}

func (m *memoryCache) Lookup(hash string) (CaseResult, bool) {
	cr, ok := m.byHash[hash]
	return cr, ok
}

func (m *memoryCache) Store(res CaseResult) {
	if res.Case.Hash != "" {
		m.byHash[res.Case.Hash] = res
	}
}
