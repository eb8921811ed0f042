package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"uavres/internal/core"
	"uavres/internal/sim"
)

// fingerprintPayload is everything that invalidates a cached case
// result: the schema version, the experiment description (ID, mission,
// seeds, the full injection), and the complete effective simulation
// config. Changing any knob — physics step, sensor spec, failsafe
// threshold, decimation factor — changes the hash, so resume re-runs
// the case rather than reusing a result computed under different code
// assumptions. JSON struct encoding is deterministic (fields in
// declaration order), which makes the digest stable across runs and
// platforms.
type fingerprintPayload struct {
	Version int        `json:"version"`
	Case    core.Case  `json:"case"`
	Config  sim.Config `json:"config"`
}

// Fingerprint digests one case plus the effective simulation config
// into the stable content hash recorded in campaign_results.json: the
// key a core.ResultCache (the result store, or -resume's prior results
// file) looks cases up by. The case's own Hash field is excluded (it is
// the output, not an input).
func Fingerprint(c core.Case, cfg sim.Config) string {
	c.Hash = ""
	payload, err := json.Marshal(fingerprintPayload{Version: Version, Case: c, Config: cfg})
	if err != nil {
		// sim.Config and core.Case are plain data; Marshal cannot fail
		// on them. Guard anyway: a hashless case is never reused.
		return ""
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}

// AttachFingerprints stamps every case with its content hash under the
// given effective config. Call it after all override sources (spec and
// CLI flags) have been applied to the config the runner will use.
func AttachFingerprints(cases []core.Case, cfg sim.Config) {
	for i := range cases {
		cases[i].Hash = Fingerprint(cases[i], cfg)
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
