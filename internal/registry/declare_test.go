package registry

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// declApp hosts a declared state of any shape: the fake behind the
// derived fork, image and restore tests. seed, when set, builds what
// NewState holds; sessions, when set, are what NewState has issued.
type declApp[T any] struct {
	seed     func() T
	sessions func() *webapp.SessionsImage
}

func (declApp[T]) Name() string     { return "Decl" }
func (declApp[T]) Host() string     { return "decl.test" }
func (declApp[T]) StartURL() string { return "http://decl.test/" }
func (a declApp[T]) NewState() AppState {
	s := &declState[T]{srv: webapp.NewServer("decl")}
	if a.seed != nil {
		s.data = a.seed()
	}
	if a.sessions != nil {
		s.srv.ImportSessions(a.sessions())
	}
	return s
}

type declState[T any] struct {
	srv  *webapp.Server
	mu   sync.Mutex
	data T
}

func (s *declState[T]) Handler() netsim.Handler { return s.srv }

func (s *declState[T]) Declare() (*sync.Mutex, any, *webapp.Server) { return &s.mu, &s.data, s.srv }

// bareApp's state serves requests but declares nothing.
type bareApp struct{ declApp[emptyData] }

func (bareApp) NewState() AppState { return bareState{} }

type bareState struct{}

func (bareState) Handler() netsim.Handler { return webapp.NewServer("bare") }

type emptyData struct{}

type row struct {
	Tags map[int]string
	Kids []string
}

type richData struct {
	NilMap    map[string]int      `json:"nilMap"`
	EmptyMap  map[string]int      `json:"emptyMap"`
	NilList   []string            `json:"nilList"`
	EmptyList []string            `json:"emptyList"`
	Rows      []row               `json:"rows"`
	Groups    map[string][]string `json:"groups"`
	Grid      [2]int              `json:"grid"`
	N         int                 `json:"n"`
}

func richSeed() richData {
	return richData{
		EmptyMap:  map[string]int{},
		EmptyList: []string{},
		Rows: []row{
			{Kids: []string{}},
			{Tags: map[int]string{1: "a"}},
		},
		Groups: map[string][]string{"a": {"x"}, "b": nil, "c": {}},
		Grid:   [2]int{3, 4},
		N:      7,
	}
}

type (
	ptrData      struct{ P *int }
	funcData     struct{ F func() }
	ifaceData    struct{ I any }
	chanData     struct{ C []chan int }
	privateData  struct{ n int }
	sessionsData struct{ Sessions int }
)

func twoSessions() *webapp.SessionsImage {
	return &webapp.SessionsImage{NextSID: 2, Sessions: []webapp.SessionImage{
		{ID: "decl-1", Vals: map[string]string{"u": "x"}}, {ID: "decl-2"},
	}}
}

const twoSessionsJSON = `{"nextSID":2,"sessions":[{"id":"decl-1","vals":{"u":"x"}},{"id":"decl-2"}]}`

// TestDerivedForkAndImage drives the fork copy and the canonical image
// every application's state derives from its one declaration.
func TestDerivedForkAndImage(t *testing.T) {
	cases := []struct {
		name string
		app  App
		// image is the state NewState builds, imaged exactly.
		image string
		// err, when set, is the refused declaration's reason.
		err string
	}{{
		name:  "empty struct",
		app:   declApp[emptyData]{sessions: twoSessions},
		image: `{"sessions":` + twoSessionsJSON + `}`,
	}, {
		name:  "nil and empty maps and slices",
		app:   declApp[richData]{seed: richSeed, sessions: twoSessions},
		image: `{"nilMap":null,"emptyMap":{},"nilList":null,"emptyList":[],"rows":[{"Tags":null,"Kids":[]},{"Tags":{"1":"a"},"Kids":null}],"groups":{"a":["x"],"b":null,"c":[]},"grid":[3,4],"n":7,"sessions":` + twoSessionsJSON + `}`,
	},
		{name: "pointer field", app: declApp[ptrData]{}, err: "ptrData.P has unsupported kind ptr"},
		{name: "func field", app: declApp[funcData]{}, err: "funcData.F has unsupported kind func"},
		{name: "interface field", app: declApp[ifaceData]{}, err: "ifaceData.I has unsupported kind interface"},
		{name: "chan element", app: declApp[chanData]{}, err: "chanData.C[] has unsupported kind chan"},
		{name: "unexported field", app: declApp[privateData]{}, err: "privateData.n is not serialized"},
		{name: "sessions field", app: declApp[sessionsData]{}, err: "collides with the image's sessions key"},
		{name: "no declaration", app: bareApp{}, err: "does not implement Declarer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.app.NewState()
			if tc.err != "" {
				checkRefused(t, tc.app, st, tc.err)
				return
			}
			got, err := marshalState("Decl", st)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.image {
				t.Errorf("image\n got %s\nwant %s", got, tc.image)
			}

			fork, err := forkState(tc.app, st)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(declared(t, fork), declared(t, st)) {
				t.Errorf("fork %+v differs from %+v", declared(t, fork), declared(t, st))
			}
			if got, _ := marshalState("Decl", fork); string(got) != tc.image {
				t.Errorf("fork images as %s", got)
			}
		})
	}
}

// declared returns a copy of a declared state's struct.
func declared(t *testing.T, st AppState) any {
	t.Helper()
	_, data, _, err := declaration("Decl", st)
	if err != nil {
		t.Fatal(err)
	}
	return data.Interface()
}

// checkRefused requires every derived operation, and the Env entry
// points over them, to refuse the state with a *NotDeclaredError that
// names the app.
func checkRefused(t *testing.T, app App, st AppState, reason string) {
	t.Helper()
	env, err := NewEnv(browser.UserMode, WithApps(app))
	if err != nil {
		t.Fatal(err)
	}
	_, forkErr := forkState(app, st)
	_, marshalErr := marshalState("Decl", st)
	_, envForkErr := env.Fork()
	_, envImageErr := env.EncodeImage()
	for _, err := range []error{
		forkErr, marshalErr, envForkErr, envImageErr,
	} {
		var nd *NotDeclaredError
		if !errors.As(err, &nd) || nd.App != "Decl" || !strings.Contains(err.Error(), reason) {
			t.Errorf("got %v, want *NotDeclaredError for Decl: %s", err, reason)
		}
	}
}

// TestDerivedForkSharesNothing mutates every level of a fork and
// requires the original to be untouched.
func TestDerivedForkSharesNothing(t *testing.T) {
	app := declApp[richData]{seed: richSeed, sessions: twoSessions}
	st := app.NewState()
	before, _ := marshalState("Decl", st)
	fork, err := forkState(app, st)
	if err != nil {
		t.Fatal(err)
	}
	d := &fork.(*declState[richData]).data
	d.EmptyMap["x"] = 1
	d.Rows[0].Kids = append(d.Rows[0].Kids, "k")
	d.Rows[1].Tags[1] = "changed"
	d.Groups["a"][0] = "changed"
	d.Grid[0] = 9
	fs := fork.(*declState[richData]).srv
	fs.Handle("/", func(_ *netsim.Request, sess *webapp.Session) *netsim.Response {
		sess.Set("u", "changed")
		return netsim.OK("")
	})
	fs.Serve(&netsim.Request{Method: "GET", URL: "http://decl.test/", Header: map[string]string{"Cookie": "sid=decl-1"}})
	fs.Serve(&netsim.Request{Method: "GET", URL: "http://decl.test/"}) // mints decl-3
	if after, _ := marshalState("Decl", st); string(after) != string(before) {
		t.Errorf("mutating the fork changed the original:\n%s\n%s", before, after)
	}
}
