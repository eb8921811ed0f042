package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"uavres/internal/core"
	"uavres/internal/sim"
)

// A case's fingerprint digests everything that invalidates a cached
// result: the schema version, the experiment description (ID, mission,
// seeds, the full injection), and the complete effective simulation
// config. Changing any knob — physics step, sensor spec, failsafe
// threshold, decimation factor — changes the hash, so resume re-runs the
// case rather than reusing a result computed under different code
// assumptions. The digest is the SHA-256 of exactly the bytes
// json.Marshal gives for the struct {Version, Case, Config} with JSON
// names version, case and config:
//
//	{"version":V,"case":<case JSON>,"config":<config JSON>}
//
// JSON struct encoding is deterministic (fields in declaration order),
// which makes the digest stable across runs and platforms. The config is
// encoded once per pass, not once per case.
var (
	fingerprintHead   = []byte(`{"version":` + strconv.Itoa(Version) + `,"case":`)
	fingerprintConfig = []byte(`,"config":`)
	fingerprintTail   = []byte(`}`)
)

// fingerprint digests one case under a config already encoded as JSON; a
// nil config (its encoding failed) yields no hash. The case's own Hash
// field is excluded (it is the output, not an input).
func fingerprint(c core.Case, config []byte) string {
	if config == nil {
		return ""
	}
	c.Hash = ""
	caseJSON, err := json.Marshal(c)
	if err != nil {
		// sim.Config and core.Case are plain data; Marshal cannot fail
		// on them. Guard anyway: a hashless case is never reused.
		return ""
	}
	h := sha256.New()
	h.Write(fingerprintHead)
	h.Write(caseJSON)
	h.Write(fingerprintConfig)
	h.Write(config)
	h.Write(fingerprintTail)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])[:8])
}

// Fingerprint digests one case plus the effective simulation config
// into the stable content hash recorded in campaign_results.json: the
// key a core.ResultCache (the result store, or -resume's prior results
// file) looks cases up by.
func Fingerprint(c core.Case, cfg sim.Config) string {
	config, _ := json.Marshal(cfg) // nil on failure: no hash
	return fingerprint(c, config)
}

// AttachFingerprints stamps every case with its content hash under the
// given effective config, encoding the config once for all of them. Call
// it after all override sources (spec and CLI flags) have been applied to
// the config the runner will use.
func AttachFingerprints(cases []core.Case, cfg sim.Config) {
	config, _ := json.Marshal(cfg) // nil on failure: no hash
	for i := range cases {
		cases[i].Hash = fingerprint(cases[i], config)
	}
}

// Hash digests the canonical JSON encoding of the whole spec — the
// experiment-design identity recorded in bench metadata so a perf
// report names exactly which plan it measured.
func (s CampaignSpec) Hash() string {
	payload, err := json.Marshal(s)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}

// String names the spec for logs: "paper-850 (spec a1b2c3d4e5f60708)".
func (s CampaignSpec) String() string {
	name := s.Name
	if name == "" {
		name = "unnamed"
	}
	return fmt.Sprintf("%s (spec %s)", name, s.Hash())
}
