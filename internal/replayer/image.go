package replayer

import "github.com/dslab-epfl/warr/internal/webdriver"

// OptionsImage is the serializable subset of Options: what the job
// journal and the distributed wire carry so another process replays
// with the same options. Hooks are code and are never serialized.
type OptionsImage struct {
	Pacing                    Pacing            `json:"pacing"`
	DisableRelaxation         bool              `json:"disableRelaxation,omitempty"`
	DisableCoordinateFallback bool              `json:"disableCoordinateFallback,omitempty"`
	Driver                    webdriver.Options `json:"driver"`
}
