package registry

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/vclock"
)

// Durable environment images. Fork copies a world within one process;
// an image is the same world as bytes — clock instant, network latency,
// every hosted application's server state, and (decoded separately by
// internal/browser) the whole browser stack. Both halves of an
// application's state derive from its one declaration (declare.go), so
// a fork and an image round trip land on the same world.

// AppImage is one application's serialized server state.
type AppImage struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// EnvImage is the environment-level half of a world image: the virtual
// instant, the network latency, and every hosted application's state.
// The browser half is a browser.Image, decoded onto the clock and
// network this half reconstructs.
type EnvImage struct {
	Now     time.Time  `json:"now"`
	Latency int64      `json:"latencyNS"`
	Apps    []AppImage `json:"apps"`
}

// EncodeImage captures the environment half of a world image. It fails
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

// RestoreEnv rebuilds an environment from its image halves: the clock
// is recreated at the imaged instant, the network at the imaged
// latency, each hosted application's state is built fresh and loaded
// from its AppImage, and the browser image is decoded onto them. The
// application selection works like NewEnv (default: the Default
// registry) but serves as the pool of definitions the imaged names
// resolve against: the image decides what the restored world hosts. A
// process may well register more applications than the one that
// captured the image — a worker linking a plugin the coordinator does
// not — and must still restore it faithfully, because an image is a
// closed world and widening it on restore would silently change what
// the campaign tests. An imaged app with no definition in the
// selection is unrecoverable.
func RestoreEnv(img *EnvImage, bimg *browser.Image, opts ...EnvOption) (*Env, *browser.DecodedImage, error) {
	_, selected := selectApps(opts)

	pool := make(map[string]App, len(selected))
	for _, a := range selected {
		if _, dup := pool[a.Name()]; dup {
			return nil, nil, &DuplicateAppError{Name: a.Name()}
		}
		pool[a.Name()] = a
	}

	clock := vclock.NewAt(img.Now)
	network := netsim.New(clock)
	network.SetLatency(time.Duration(img.Latency))

	e := &Env{
		Clock:   clock,
		Network: network,
		cells:   make(map[string]*stateCell, len(img.Apps)),
	}
	for _, ai := range img.Apps {
		name := ai.Name
		a, ok := pool[name]
		if !ok {
			return nil, nil, fmt.Errorf("registry: image hosts app %q, which is not registered in this process", name)
		}
		if _, dup := e.cells[name]; dup {
			return nil, nil, fmt.Errorf("registry: image lists app %q twice", name)
		}
		st := a.NewState()
		if err := unmarshalState(name, st, ai.Data); err != nil {
			return nil, nil, fmt.Errorf("registry: unmarshaling app %q: %w", name, err)
		}
		e.host(a, &stateCell{app: a, st: st})
	}

	dec, err := browser.DecodeImage(bimg, clock, network)
	if err != nil {
		return nil, nil, err
	}
	e.Browser = dec.Browser()
	e.Browser.SetWorld(e)
	return e, dec, nil
}
