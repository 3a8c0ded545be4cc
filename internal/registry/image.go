package registry

import (
	"encoding/json"
	"fmt"
	"time"
)

// Environment images: the server half of a world as canonical bytes —
// clock instant, network latency and every hosted application's state.
// Nothing restores from them; they are the world-equality oracle. Two
// environments hold the same server world exactly when their images
// are byte-identical, which is how the tests check that Reset and Fork
// land on the world a fresh environment builds.

// AppImage is one application's serialized server state.
type AppImage struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// EnvImage is an environment's server world: the virtual instant, the
// network latency, and every hosted application's state.
type EnvImage struct {
	Now     time.Time  `json:"now"`
	Latency int64      `json:"latencyNS"`
	Apps    []AppImage `json:"apps"`
}

// EncodeImage captures the environment's server world. It fails
// with *NotDeclaredError when a hosted application's state does not
// implement Declarer. Like State, it settles pending fork snapshots
// before touching each state.
func (e *Env) EncodeImage() (*EnvImage, error) {
	img := &EnvImage{
		Now:     e.Clock.Now(),
		Latency: int64(e.Network.Latency()),
		Apps:    make([]AppImage, 0, len(e.apps)),
	}
	for _, a := range e.apps {
		name := a.Name()
		data, err := marshalState(name, e.cells[name].touch())
		if err != nil {
			return nil, fmt.Errorf("registry: marshaling app %q: %w", name, err)
		}
		img.Apps = append(img.Apps, AppImage{Name: name, Data: data})
	}
	return img, nil
}
