package image

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/core"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// record runs a scenario in a fresh user-mode environment with the
// recorder attached and returns the trace.
func record(t *testing.T, sc apps.Scenario) command.Trace {
	t.Helper()
	env := apps.NewEnv(browser.UserMode)
	tab := env.Browser.NewTab()
	if err := tab.Navigate(sc.StartURL); err != nil {
		t.Fatalf("Navigate: %v", err)
	}
	rec := core.New(env.Clock)
	rec.Attach(tab)
	if err := sc.Run(env, tab); err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	return rec.Trace()
}

// stepKey reduces a Step to its comparable outcome; errors compare by
// message, which an image round trip preserves exactly.
func stepKey(s replayer.Step) string {
	msg := ""
	if s.Err != nil {
		msg = s.Err.Error()
	}
	return fmt.Sprintf("%d %s %v %q %q err=%q", s.Index, s.Cmd, s.Status, s.UsedXPath, s.Heuristic, msg)
}

func resultKey(res *replayer.Result) []string {
	out := []string{fmt.Sprintf("played=%d failed=%d halted=%v cancelled=%v",
		res.Played, res.Failed, res.Halted, res.Cancelled)}
	for _, s := range res.Steps {
		out = append(out, stepKey(s))
	}
	return out
}

func compareResults(t *testing.T, label string, want, got *replayer.Result) {
	t.Helper()
	w, g := resultKey(want), resultKey(got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d result lines, want %d\nwant: %v\ngot:  %v", label, len(g), len(w), w, g)
	}
	for i := range w {
		if w[i] != g[i] {
			t.Errorf("%s: line %d:\nwant %s\ngot  %s", label, i, w[i], g[i])
		}
	}
}

// TestImageRoundTripEquivalenceEveryScenario is the durable-image
// counterpart of the fork-equivalence contract: for every registered
// scenario and every fork point k, replaying k commands, forking,
// imaging the forked world, round-tripping the image through bytes,
// and resuming the restored session must be indistinguishable from
// finishing the in-memory fork — same step outcomes, same final page,
// same console, a server state the scenario's own oracle accepts, and
// a second capture of the untouched world producing the identical
// digest.
func TestImageRoundTripEquivalenceEveryScenario(t *testing.T) {
	for _, name := range registry.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			sc, err := registry.LookupScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := record(t, sc)

			for k := 0; k <= len(tr.Commands); k++ {
				env := registry.MustNewEnv(browser.DeveloperMode)
				s, err := replayer.New(env.Browser, replayer.Options{}).NewSession(nil, tr)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				for i := 0; i < k; i++ {
					if _, ok := s.Next(); !ok {
						t.Fatalf("session ended early at command %d", i)
					}
				}
				fork, err := s.Fork()
				if err != nil {
					t.Fatalf("Fork at %d: %v", k, err)
				}
				forkEnv := fork.Tab().Browser().World().(*registry.Env)

				img, err := Capture(forkEnv, fork, Header{Scenario: name})
				if err != nil {
					t.Fatalf("Capture at %d: %v", k, err)
				}
				data, digest, err := Encode(img)
				if err != nil {
					t.Fatalf("Encode at %d: %v", k, err)
				}
				img2, digest2, err := Decode(data)
				if err != nil {
					t.Fatalf("Decode at %d: %v", k, err)
				}
				if digest2 != digest {
					t.Fatalf("at %d: decode verified digest %s, encode said %s", k, digest2, digest)
				}

				// Capturing the untouched world again must produce the
				// identical digest — images are content-addressed.
				if again, err := Capture(forkEnv, fork, Header{Scenario: name}); err != nil {
					t.Fatalf("re-Capture at %d: %v", k, err)
				} else if d, err := again.Digest(); err != nil || d != digest {
					t.Fatalf("at %d: second capture digest %s (%v), want %s", k, d, err, digest)
				}

				restoredEnv, restored, err := LoadSession(img2, nil, nil)
				if err != nil {
					t.Fatalf("LoadSession at %d: %v", k, err)
				}

				forkRes := fork.Run()
				restoredRes := restored.Run()
				compareResults(t, fmt.Sprintf("fork point %d", k), forkRes, restoredRes)

				ft, rt := fork.Tab(), restored.Tab()
				if rt.URL() != ft.URL() || rt.Title() != ft.Title() {
					t.Errorf("fork point %d: final page %q (%q), want %q (%q)",
						k, rt.URL(), rt.Title(), ft.URL(), ft.Title())
				}
				if w, g := len(ft.Console()), len(rt.Console()); w != g {
					t.Errorf("fork point %d: %d console entries, want %d", k, g, w)
				}
				if err := sc.Verify(restoredEnv, rt); err != nil {
					t.Errorf("fork point %d: scenario oracle rejected the restored replay: %v", k, err)
				}
			}
		})
	}
}

// TestImageWithPendingAJAX pins the hard case: imaging a world while
// the Sites editor fetch is in flight. The pending AJAX must fire in
// the restored world exactly as in the imaged one.
func TestImageWithPendingAJAX(t *testing.T) {
	sc := apps.EditSiteScenario()
	tr := record(t, sc)

	env := apps.NewEnv(browser.DeveloperMode)
	s, err := replayer.New(env.Browser, replayer.Options{}).NewSession(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	imaged := false
	for i := 0; i < len(tr.Commands); i++ {
		if env.Clock.PendingTimers() > 0 && !imaged {
			imaged = true
			img, err := Capture(env, s, Header{Scenario: "Edit site"})
			if err != nil {
				t.Fatalf("Capture with pending AJAX: %v", err)
			}
			data, _, err := Encode(img)
			if err != nil {
				t.Fatal(err)
			}
			img2, _, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			restoredEnv, restored, err := LoadSession(img2, nil, nil)
			if err != nil {
				t.Fatalf("LoadSession: %v", err)
			}
			if got := restoredEnv.Clock.PendingTimers(); got != env.Clock.PendingTimers() {
				t.Fatalf("restored world has %d pending timers, imaged one %d", got, env.Clock.PendingTimers())
			}
			if res := restored.Run(); !res.Complete() {
				t.Fatalf("restored replay incomplete: %+v", res)
			}
			if err := sc.Verify(restoredEnv, restored.Tab()); err != nil {
				t.Errorf("restored replay with pending AJAX failed the oracle: %v", err)
			}
		}
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if !imaged {
		t.Fatal("no command left AJAX pending; scenario no longer covers the case")
	}
	// The imaged world is untouched: the original session still finishes.
	if res := s.Result(); !res.Complete() {
		t.Fatalf("original replay incomplete after imaging: %+v", res)
	}
	if err := sc.Verify(env, s.Tab()); err != nil {
		t.Errorf("original session failed its oracle after imaging: %v", err)
	}
}

// smallImage builds a compact pristine image (the Yahoo authenticate
// world at fork point 0) for the corruption sweeps.
func smallImage(t *testing.T) []byte {
	t.Helper()
	tr := record(t, apps.AuthenticateScenario())
	env := registry.MustNewEnv(browser.DeveloperMode)
	s, err := replayer.New(env.Browser, replayer.Options{}).NewSession(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Capture(env, s, Header{Scenario: "Authenticate", Creator: "test"})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestImageRejectsCorruption mirrors the trace-archive flip test: a
// single-byte flip anywhere in the compressed region must either be
// rejected or be semantically inert (gzip's few uncheck-summed header
// bits); what must never happen is a flip that reads back as different
// content. Truncations must always be rejected.
func TestImageRejectsCorruption(t *testing.T) {
	pristine := smallImage(t)
	wantImg, wantDigest, err := Decode(pristine)
	if err != nil {
		t.Fatal(err)
	}
	_ = wantImg

	bodyStart := bytes.Index(pristine, []byte("\n\n")) + 2
	detected := 0
	for off := bodyStart; off < len(pristine); off++ {
		corrupt := append([]byte(nil), pristine...)
		corrupt[off] ^= 0x40
		_, digest, err := Decode(corrupt)
		if err != nil {
			detected++
			continue
		}
		if digest != wantDigest {
			t.Fatalf("corruption at byte %d read back as different content", off)
		}
	}
	if flips := len(pristine) - bodyStart; detected < flips*9/10 {
		t.Errorf("only %d/%d compressed-region flips were detected", detected, flips)
	}

	for _, cut := range []int{1, bodyStart / 2, bodyStart, len(pristine) / 2, len(pristine) - 1} {
		if _, _, err := Decode(pristine[:cut]); err == nil {
			t.Errorf("truncation at %d bytes was not detected", cut)
		}
	}
}

// forgeImage wraps a handwritten body in a valid file envelope.
func forgeImage(t *testing.T, body string) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("WARR-IMAGE v1\n\n")
	gz := gzip.NewWriter(&buf)
	if _, err := io.WriteString(gz, body); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestImageBodyValidation(t *testing.T) {
	// A tiny valid section to build forged bodies around.
	payload := `{}`
	sec := func(name string) string {
		return fmt.Sprintf("-- section %s bytes=%d fnv1a=%s\n%s\n", name, len(payload), fnv1aHex([]byte(payload)), payload)
	}
	footer := func(n int, secs ...section) string {
		return fmt.Sprintf("-- end sections=%d sha256=%s\n", n, digestSections(secs))
	}
	envSec := section{name: "env", payload: []byte(payload)}
	browserSec := section{name: "browser", payload: []byte(payload)}

	cases := []struct {
		name string
		body string
	}{
		{"missing body magic", sec("env") + sec("browser") + footer(2, envSec, browserSec)},
		{"missing footer", "# warr-image v1\n" + sec("env") + sec("browser")},
		{"section count mismatch", "# warr-image v1\n" + sec("env") + sec("browser") + footer(3, envSec, browserSec)},
		{"digest mismatch", "# warr-image v1\n" + sec("env") + sec("browser") + strings.Replace(footer(2, envSec, browserSec), "sha256=", "sha256=0", 1)},
		{"content past footer", "# warr-image v1\n" + sec("env") + sec("browser") + footer(2, envSec, browserSec) + "trailing\n"},
		{"duplicate section", "# warr-image v1\n" + sec("env") + sec("env") + footer(2, envSec, envSec)},
		{"unknown section", "# warr-image v1\n" + sec("env") + sec("browser") + sec("mystery") + footer(3, envSec, browserSec, section{name: "mystery", payload: []byte(payload)})},
		{"missing required section", "# warr-image v1\n" + sec("env") + footer(1, envSec)},
		{"checksum mismatch", "# warr-image v1\n" + strings.Replace(sec("env"), "fnv1a=", "fnv1a=0", 1) + sec("browser") + footer(2, envSec, browserSec)},
		{"malformed section header", "# warr-image v1\n-- section env bytes=x fnv1a=0\n" + footer(0)},
	}
	for _, tc := range cases {
		if _, _, err := Decode(forgeImage(t, tc.body)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// The checksum failure must be the typed error.
	var cse *CorruptSectionError
	_, _, err := Decode(forgeImage(t, "# warr-image v1\n"+strings.Replace(sec("env"), "fnv1a=", "fnv1a=0", 1)))
	if !errors.As(err, &cse) || cse.Section != "env" {
		t.Errorf("section checksum failure = %v, want *CorruptSectionError for env", err)
	}
}

// TestImageForgedSectionSizeIsNotAllocated pins that a section header
// is not trusted for its size: a body of a few bytes declaring a
// near-maxSectionLen section is rejected as truncated without
// allocating what it declares.
func TestImageForgedSectionSizeIsNotAllocated(t *testing.T) {
	const declared = maxSectionLen - 1
	data := forgeImage(t, fmt.Sprintf("# warr-image v1\n-- section env bytes=%d fnv1a=0\n{}\n", declared))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("forged section size: err = %v, want a truncation error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > declared/16 {
		t.Errorf("decoding a forged %d-byte section allocated %d bytes", declared, got)
	}
}

func TestImageFutureVersionRefused(t *testing.T) {
	data := []byte("WARR-IMAGE v2\n\nanything")
	_, _, err := Decode(data)
	var fve *FutureVersionError
	if !errors.As(err, &fve) {
		t.Fatalf("v2 image read error = %v, want *FutureVersionError", err)
	}
	if fve.Version != 2 {
		t.Errorf("reported version %d, want 2", fve.Version)
	}
}

func TestImageHeaderRoundTrip(t *testing.T) {
	tr := record(t, apps.AuthenticateScenario())
	env := registry.MustNewEnv(browser.DeveloperMode)
	s, err := replayer.New(env.Browser, replayer.Options{}).NewSession(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Capture(env, s, Header{
		Scenario: "Authenticate",
		App:      "Yahoo",
		Creator:  "weberr",
		Extra:    map[string]string{"shard": "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	h := got.Header
	if h.Version != Version || h.Scenario != "Authenticate" || h.App != "Yahoo" || h.Creator != "weberr" {
		t.Errorf("header round trip = %+v", h)
	}
	if h.Extra["shard"] != "3" {
		t.Errorf("extra header keys lost: %+v", h.Extra)
	}
	// The plain-text header is readable before the gzip body.
	if !strings.HasPrefix(string(data), "WARR-IMAGE v1\nscenario: Authenticate\napp: Yahoo\ncreator: weberr\nshard: 3\n\n") {
		t.Errorf("file does not open with the expected plain-text header:\n%q", string(data[:80]))
	}
}

// plusApp is an application registered in the restoring process but
// absent from the imaged world — the shape of a warr-worker linking a
// plugin the coordinator that captured the image does not.
type plusApp struct{}

func (plusApp) Name() string     { return "Plus" }
func (plusApp) Host() string     { return "plus.test" }
func (plusApp) StartURL() string { return "http://plus.test/" }
func (plusApp) NewState() registry.AppState {
	s := &plusState{srv: webapp.NewServer("plus")}
	s.srv.Handle("/", func(*netsim.Request, *webapp.Session) *netsim.Response {
		return netsim.OK("<html><head><title>Plus</title></head><body></body></html>")
	})
	return s
}

type plusState struct {
	srv  *webapp.Server
	mu   sync.Mutex
	data struct{}
}

func (s *plusState) Handler() netsim.Handler { return s.srv }

func (s *plusState) Declare() (*sync.Mutex, any, *webapp.Server) { return &s.mu, &s.data, s.srv }

// TestImageRestoreAcrossRegistries pins the closed-world restore rule:
// the image decides what the restored environment hosts. A restoring
// process with a wider registry (extra plugins linked) must restore
// faithfully — exactly the imaged apps, nothing more — and a process
// missing an imaged app must refuse, not improvise.
func TestImageRestoreAcrossRegistries(t *testing.T) {
	pristine := smallImage(t)
	img, _, err := Decode(pristine)
	if err != nil {
		t.Fatal(err)
	}

	wide := registry.New()
	for _, a := range registry.Default.Apps() {
		wide.MustRegisterApp(a)
	}
	wide.MustRegisterApp(plusApp{})
	env, sess, err := LoadSession(img, nil, nil, registry.WithRegistry(wide))
	if err != nil {
		t.Fatalf("restore with a wider registry: %v", err)
	}
	var want []string
	for _, ai := range img.Env.Apps {
		want = append(want, ai.Name)
	}
	got := env.AppNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("restored world hosts %v, imaged world hosts %v", got, want)
	}
	if res := sess.Run(); res.Failed > 0 {
		t.Errorf("restored session failed %d steps", res.Failed)
	}

	narrow := registry.New()
	narrow.MustRegisterApp(plusApp{})
	if _, _, err := LoadSession(img, nil, nil, registry.WithRegistry(narrow)); err == nil {
		t.Error("restored an image whose apps are not registered")
	} else if !strings.Contains(err.Error(), "not registered") {
		t.Errorf("missing-app restore error = %v", err)
	}
}

func TestImageStore(t *testing.T) {
	pristine := smallImage(t)
	st := NewStore()

	d1, err := st.AddBytes(pristine)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := st.AddBytes(pristine)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || st.Len() != 1 {
		t.Errorf("identical bytes stored as %s and %s across %d entries, want dedup", d1, d2, st.Len())
	}
	if data, ok := st.Bytes(d1); !ok || !bytes.Equal(data, pristine) {
		t.Error("stored bytes do not round trip")
	}
	if _, err := st.Get(d1); err != nil {
		t.Errorf("Get(%s): %v", d1, err)
	}
	if _, ok := st.Bytes("deadbeef"); ok {
		t.Error("unknown digest resolved")
	}

	corrupt := append([]byte(nil), pristine...)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := st.AddBytes(corrupt); err == nil {
		t.Error("corrupt image accepted into the store")
	}
}

// scenarioImage images the named scenario's world halfway through a
// replay of its recorded trace, with the session parked in it.
func scenarioImage(t *testing.T, name string) *Image {
	t.Helper()
	sc, err := registry.LookupScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := record(t, sc)
	env := registry.MustNewEnv(browser.DeveloperMode)
	s, err := replayer.New(env.Browser, replayer.Options{}).NewSession(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tr.Commands)/2; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("%s: session ended early at command %d", name, i)
		}
	}
	img, err := Capture(env, s, Header{Scenario: name, Creator: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// freshGzipEncoding re-encodes an image's bytes with its body
// recompressed by a brand-new gzip.Writer at the codec's level — what
// the codec emitted before it pooled its writers.
func freshGzipEncoding(t *testing.T, data []byte) []byte {
	t.Helper()
	split := bytes.Index(data, []byte("\n\n")) + 2
	zr, err := gzip.NewReader(bytes.NewReader(data[split:]))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.Write(data[:split])
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestPooledEncodeMatchesFreshWriter pins that pooling the gzip state
// changes no image: encoding one world repeatedly, with other worlds
// encoded through the same pooled writers in between, yields the same
// bytes every time, and those bytes are exactly what a fresh
// gzip.NewWriter emits.
func TestPooledEncodeMatchesFreshWriter(t *testing.T) {
	img := scenarioImage(t, "edit-site")
	other := scenarioImage(t, "compose-email")
	first, digest, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	if fresh := freshGzipEncoding(t, first); !bytes.Equal(first, fresh) {
		t.Fatalf("pooled encoding (%d bytes) differs from a fresh gzip.Writer's (%d bytes)", len(first), len(fresh))
	}
	for i := 0; i < 8; i++ {
		if _, _, err := Encode(other); err != nil {
			t.Fatal(err)
		}
		again, d, err := Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		if d != digest || !bytes.Equal(again, first) {
			t.Fatalf("encode %d through the pool: %d bytes digest %s, want %d bytes digest %s",
				i+1, len(again), d, len(first), digest)
		}
	}
}

// TestConcurrentEncodeDecode runs distinct scenario worlds through the
// pooled codec from 8 goroutines at once: every goroutine must get
// back its own bytes and digest, never another world's (run it under
// -race).
func TestConcurrentEncodeDecode(t *testing.T) {
	names := registry.ScenarioNames()
	const workers = 8
	type want struct {
		img    *Image
		data   []byte
		digest string
	}
	wants := make([]want, workers)
	for i := range wants {
		img := scenarioImage(t, names[i%len(names)])
		img.Header.Extra = map[string]string{"worker": fmt.Sprint(i)}
		data, digest, err := Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{img, data, digest}
	}
	errs := make(chan error, workers)
	for i := range wants {
		go func(w want) {
			for round := 0; round < 20; round++ {
				data, digest, err := Encode(w.img)
				if err != nil {
					errs <- err
					return
				}
				if digest != w.digest || !bytes.Equal(data, w.data) {
					errs <- fmt.Errorf("%s: round %d encoded digest %s, want %s", w.img.Header.Scenario, round, digest, w.digest)
					return
				}
				back, digest, err := Decode(data)
				if err != nil {
					errs <- err
					return
				}
				if digest != w.digest || back.Header.Extra["worker"] != w.img.Header.Extra["worker"] {
					errs <- fmt.Errorf("%s: round %d decoded digest %s worker %q, want %s worker %q", w.img.Header.Scenario,
						round, digest, back.Header.Extra["worker"], w.digest, w.img.Header.Extra["worker"])
					return
				}
			}
			errs <- nil
		}(wants[i])
	}
	for range wants {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestFailedDecodeLeavesPoolClean interleaves decodes that fail at
// every stage — a gzip header the pooled reader cannot Reset onto, a
// corrupt deflate stream, a body truncated mid-section — with decodes
// of a good image, which must keep succeeding with the same digest:
// no state from a failed call may leak into the next one.
func TestFailedDecodeLeavesPoolClean(t *testing.T) {
	good := smallImage(t)
	_, wantDigest, err := Decode(good)
	if err != nil {
		t.Fatal(err)
	}
	bodyStart := bytes.Index(good, []byte("\n\n")) + 2
	flip := func(off int) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= 0xff
		return b
	}
	bad := map[string][]byte{
		"bad gzip magic":       flip(bodyStart),
		"corrupt deflate":      flip(bodyStart + (len(good)-bodyStart)/2),
		"truncated mid-body":   good[:bodyStart+(len(good)-bodyStart)/2],
		"truncated gzip trail": good[:len(good)-4],
		"empty body":           good[:bodyStart],
	}
	for round := 0; round < 3; round++ {
		for name, data := range bad {
			if _, _, err := Decode(data); err == nil {
				t.Fatalf("%s: accepted", name)
			}
			if _, digest, err := Decode(good); err != nil || digest != wantDigest {
				t.Fatalf("good decode after %s: digest %s err %v, want %s", name, digest, err, wantDigest)
			}
		}
	}
}
