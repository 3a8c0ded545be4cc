// Package image persists forked WaRR worlds as versioned, content-
// addressed WARR-IMAGE files — the durable counterpart of Env.Fork and
// the transport of the distributed campaign executor.
//
// A fork copies a world within one process; an image is the same world
// as bytes: the environment half (virtual instant, network latency,
// every hosted application's server state), the whole browser stack
// (cookies, tabs, frame trees, DOM, script interpreter state, the
// event-listener registration log, pending timers and AJAX), the
// webdriver master state, and — optionally — the replay session parked
// at its current command. Ship the file to another process, load it,
// and replay continues from the imaged instant exactly as a same-
// process fork would have.
//
// The file layout follows the WARR-ARCHIVE idiom (internal/trace): a
// plain-text `key: value` header a developer can read with head(1),
// then a gzip-compressed body of named sections:
//
//	WARR-IMAGE v1
//	scenario: Edit site
//	<blank line>
//	<gzip of:>
//	# warr-image v1
//	-- section env bytes=214 fnv1a=8c93d0a1e5b2f471
//	{...}
//	-- section browser bytes=48112 fnv1a=...
//	{...}
//	-- section session bytes=1832 fnv1a=...
//	{...}
//	-- end sections=3 sha256=<hex>
//
// Validation is strict and versioning is forward-compatible, exactly
// like trace archives: a newer format version is refused with a
// *FutureVersionError rather than misread, every section carries an
// FNV-1a checksum caught before its JSON is even parsed, the footer
// pins the section count and the SHA-256 content digest, and nothing
// may follow the footer. The digest is computed over the uncompressed
// section contents — identical worlds produce identical digests, which
// is what lets the Store deduplicate images by content and the
// distributed executor name them on the wire.
package image

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/fnv1a"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// Version is the image format version this package writes.
const Version = 1

// magicPrefix opens every image file; the full magic line is
// "WARR-IMAGE v<version>".
const magicPrefix = "WARR-IMAGE v"

// bodyMagic is the required first line of the decompressed body.
const bodyMagic = "# warr-image v1"

// Section framing.
const (
	sectionPrefix = "-- section "
	footerPrefix  = "-- end "
)

// Section names, in serialization order.
const (
	sectionEnv     = "env"
	sectionBrowser = "browser"
	sectionSession = "session"
)

// maxSectionLen bounds one section payload (the browser section of a
// deep world is large, but not unbounded); maxHeaderLen bounds one
// plain-text header line.
const (
	maxSectionLen = 1 << 28
	maxHeaderLen  = 1 << 16
)

// Header is the plaintext metadata block of an image file.
type Header struct {
	// Version is the format version. Zero means "current" when writing;
	// readers set it to the version of the file they read.
	Version int

	// Scenario names the workload the imaged world was executing.
	Scenario string

	// App names the application under test, when there is a single one.
	App string

	// Creator identifies what produced the image ("weberr",
	// "warr-worker").
	Creator string

	// Extra holds unknown header keys, preserved across a read/write
	// round trip.
	Extra map[string]string
}

const (
	keyScenario = "scenario"
	keyApp      = "app"
	keyCreator  = "creator"
)

// FutureVersionError reports an image written by a newer format version
// than this package understands.
type FutureVersionError struct {
	Version int
}

func (e *FutureVersionError) Error() string {
	return fmt.Sprintf("image: format v%d is newer than supported v%d; upgrade warr to read it",
		e.Version, Version)
}

// CorruptSectionError reports a section whose bytes do not match their
// recorded checksum.
type CorruptSectionError struct {
	Section string
}

func (e *CorruptSectionError) Error() string {
	return fmt.Sprintf("image: section %q fails its checksum (corrupt or tampered)", e.Section)
}

// Image is a world image in memory: the three section payloads plus the
// file header. Session may be nil — a world image need not carry a
// parked replay.
type Image struct {
	Header  Header
	Env     *registry.EnvImage
	Browser *browser.Image
	Session *replayer.Image
}

// ---- capture ----

// Capture images a live world: the environment half through
// registry.Env.EncodeImage, the browser through browser.EncodeImage,
// and — when sess is non-nil — the replay session named by the browser
// image's tab/frame numbering. The world must be imageable: every
// hosted application implements registry.Declarer and the browser
// holds no state outside the image vocabulary (fails with
// browser.ErrNotImageable wrapped otherwise).
func Capture(env *registry.Env, sess *replayer.Session, h Header) (*Image, error) {
	ei, err := env.EncodeImage()
	if err != nil {
		return nil, err
	}
	bi, refs, err := env.Browser.EncodeImage()
	if err != nil {
		return nil, err
	}
	img := &Image{Header: h, Env: ei, Browser: bi}
	if sess != nil {
		si, err := sess.EncodeImage(refs.TabID, refs.FrameID)
		if err != nil {
			return nil, err
		}
		img.Session = si
	}
	return img, nil
}

// CaptureSession images the live world a replay session runs in,
// resolving the environment from the session itself: its tab's browser
// must be hosted by a registry environment — the shape every session
// built through the engine or the CLIs has.
func CaptureSession(sess *replayer.Session, h Header) (*Image, error) {
	env, ok := sess.Tab().Browser().World().(*registry.Env)
	if !ok {
		return nil, fmt.Errorf("image: session world is not a registry environment")
	}
	return Capture(env, sess, h)
}

// ---- restore ----

// LoadEnv rebuilds the imaged world: an environment with its clock at
// the imaged instant, restored application states, and the decoded
// browser attached. The application selection works like
// registry.NewEnv and must match the imaged set.
func LoadEnv(img *Image, opts ...registry.EnvOption) (*registry.Env, *browser.DecodedImage, error) {
	if img.Env == nil || img.Browser == nil {
		return nil, nil, fmt.Errorf("image: incomplete image (env and browser sections are required)")
	}
	return registry.RestoreEnv(img.Env, img.Browser, opts...)
}

// LoadSession rebuilds the imaged world and the replay session parked
// in it. Hooks are code, not state: the restored session runs with the
// given hook chain (typically nil).
func LoadSession(img *Image, ctx context.Context, hooks []replayer.Hooks, opts ...registry.EnvOption) (*registry.Env, *replayer.Session, error) {
	if img.Session == nil {
		return nil, nil, fmt.Errorf("image: image carries no replay session")
	}
	env, dec, err := LoadEnv(img, opts...)
	if err != nil {
		return nil, nil, err
	}
	sess, err := replayer.DecodeImage(img.Session, ctx, env.Browser, hooks, dec.Tab, dec.Frame)
	if err != nil {
		return nil, nil, err
	}
	return env, sess, nil
}

// ---- writing ----

func fnv1aHex(data []byte) string {
	return fmt.Sprintf("%016x", fnv1a.Bytes(data))
}

// gzip state is pooled across images: a fresh DefaultCompression
// writer allocates ~1 MB of compressor tables, hundreds of times the
// ~2 KB body it then compresses. A Reset writer emits exactly the bytes
// a fresh one would, so pooling changes no image. Writers go back onto
// io.Discard so the pool never pins a caller's writer; a reader whose
// Reset failed is dropped rather than pooled.
var (
	gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

type section struct {
	name    string
	payload []byte
}

func (img *Image) sections() ([]section, error) {
	if img.Env == nil || img.Browser == nil {
		return nil, fmt.Errorf("image: incomplete image (env and browser sections are required)")
	}
	var out []section
	add := func(name string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("image: marshaling section %q: %w", name, err)
		}
		if len(data) > maxSectionLen {
			return fmt.Errorf("image: section %q exceeds %d bytes", name, maxSectionLen)
		}
		out = append(out, section{name: name, payload: data})
		return nil
	}
	if err := add(sectionEnv, img.Env); err != nil {
		return nil, err
	}
	if err := add(sectionBrowser, img.Browser); err != nil {
		return nil, err
	}
	if img.Session != nil {
		if err := add(sectionSession, img.Session); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// digestSections computes the content digest: SHA-256 over each
// section's name, a NUL byte, its payload, and a newline, in order.
// The digest covers the uncompressed content only, so it is a pure
// function of the imaged world.
func digestSections(secs []section) string {
	h := sha256.New()
	for _, s := range secs {
		digestSection(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestSection(h hash.Hash, s section) {
	io.WriteString(h, s.name)
	h.Write([]byte{0})
	h.Write(s.payload)
	h.Write([]byte{'\n'})
}

// Digest returns the image's content digest without writing it
// anywhere — the identity the Store and the distributed executor key
// images by.
func (img *Image) Digest() (string, error) {
	secs, err := img.sections()
	if err != nil {
		return "", err
	}
	return digestSections(secs), nil
}

// Write serializes the image to w and returns its content digest.
func Write(w io.Writer, img *Image) (digest string, err error) {
	h := img.Header
	if h.Version == 0 {
		h.Version = Version
	}
	if h.Version != Version {
		return "", fmt.Errorf("image: cannot write format v%d (this package writes v%d)", h.Version, Version)
	}
	secs, err := img.sections()
	if err != nil {
		return "", err
	}
	digest = digestSections(secs)

	var b strings.Builder
	fmt.Fprintf(&b, "%s%d\n", magicPrefix, h.Version)
	writeKey := func(k, v string) error {
		if v == "" {
			return nil
		}
		if strings.ContainsAny(v, "\n\r") {
			return fmt.Errorf("image: header %s contains a newline", k)
		}
		if len(k)+len(": ")+len(v) > maxHeaderLen {
			return fmt.Errorf("image: header %s exceeds %d bytes", k, maxHeaderLen)
		}
		fmt.Fprintf(&b, "%s: %s\n", k, v)
		return nil
	}
	for _, kv := range []struct{ k, v string }{
		{keyScenario, h.Scenario},
		{keyApp, h.App},
		{keyCreator, h.Creator},
	} {
		if err := writeKey(kv.k, kv.v); err != nil {
			return "", err
		}
	}
	extras := make([]string, 0, len(h.Extra))
	for k := range h.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		switch k {
		case keyScenario, keyApp, keyCreator:
			return "", fmt.Errorf("image: extra header key %q shadows a well-known key", k)
		}
		if k == "" || strings.ContainsAny(k, ":\n\r ") {
			return "", fmt.Errorf("image: invalid extra header key %q", k)
		}
		if err := writeKey(k, h.Extra[k]); err != nil {
			return "", err
		}
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return "", fmt.Errorf("image: writing header: %w", err)
	}

	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	defer func() {
		gz.Reset(io.Discard)
		gzipWriters.Put(gz)
	}()
	bw := bufio.NewWriter(gz)
	write := func(s string) error {
		_, err := bw.WriteString(s)
		return err
	}
	if err := write(bodyMagic + "\n"); err != nil {
		return "", err
	}
	for _, s := range secs {
		if err := write(fmt.Sprintf("%s%s bytes=%d fnv1a=%s\n", sectionPrefix, s.name, len(s.payload), fnv1aHex(s.payload))); err != nil {
			return "", err
		}
		if _, err := bw.Write(s.payload); err != nil {
			return "", err
		}
		if err := write("\n"); err != nil {
			return "", err
		}
	}
	if err := write(fmt.Sprintf("%ssections=%d sha256=%s\n", footerPrefix, len(secs), digest)); err != nil {
		return "", err
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := gz.Close(); err != nil {
		return "", err
	}
	return digest, nil
}

// Encode serializes the image to bytes and returns them with the
// content digest.
func Encode(img *Image) (data []byte, digest string, err error) {
	var b bytes.Buffer
	digest, err = Write(&b, img)
	if err != nil {
		return nil, "", err
	}
	return b.Bytes(), digest, nil
}

// WriteFile serializes the image to path and returns its content
// digest.
func WriteFile(path string, img *Image) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	digest, err := Write(f, img)
	if err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return digest, nil
}

// ---- reading ----

// Read parses and validates a whole image from r, returning it with
// its verified content digest.
func Read(r io.Reader) (*Image, string, error) {
	br := byteLineReader{r: r}
	magic, err := br.line()
	if err != nil {
		return nil, "", fmt.Errorf("image: reading magic: %w", err)
	}
	vs, ok := strings.CutPrefix(magic, magicPrefix)
	if !ok {
		return nil, "", fmt.Errorf("image: not a WaRR world image (magic %q)", magic)
	}
	v, err := strconv.Atoi(vs)
	if err != nil || v < 1 {
		return nil, "", fmt.Errorf("image: malformed version %q", vs)
	}
	if v > Version {
		return nil, "", &FutureVersionError{Version: v}
	}
	h := Header{Version: v}
	seen := make(map[string]bool)
	for {
		line, err := br.line()
		if err != nil {
			return nil, "", fmt.Errorf("image: reading header: %w", err)
		}
		if line == "" {
			break
		}
		k, val, ok := strings.Cut(line, ": ")
		if !ok || k == "" || strings.ContainsRune(k, ' ') {
			return nil, "", fmt.Errorf("image: malformed header line %q", line)
		}
		if seen[k] {
			return nil, "", fmt.Errorf("image: duplicate header key %q", k)
		}
		seen[k] = true
		switch k {
		case keyScenario:
			h.Scenario = val
		case keyApp:
			h.App = val
		case keyCreator:
			h.Creator = val
		default:
			if h.Extra == nil {
				h.Extra = make(map[string]string)
			}
			h.Extra[k] = val
		}
	}

	gz := gzipReaders.Get().(*gzip.Reader)
	if err := gz.Reset(br.r); err != nil {
		return nil, "", fmt.Errorf("image: opening body: %w", err)
	}
	defer gzipReaders.Put(gz)
	body := bufio.NewReader(gz)
	first, err := bodyLine(body)
	if err != nil {
		return nil, "", err
	}
	if first != bodyMagic {
		return nil, "", fmt.Errorf("image: body does not open with %q (got %q)", bodyMagic, first)
	}

	var secs []section
	byName := make(map[string][]byte)
	for {
		line, err := bodyLine(body)
		if err != nil {
			return nil, "", err
		}
		if rest, ok := strings.CutPrefix(line, footerPrefix); ok {
			var n int
			var sum string
			if _, err := fmt.Sscanf(rest, "sections=%d sha256=%s", &n, &sum); err != nil {
				return nil, "", fmt.Errorf("image: malformed footer %q", line)
			}
			if n != len(secs) {
				return nil, "", fmt.Errorf("image: footer declares %d sections, body has %d", n, len(secs))
			}
			if got := digestSections(secs); got != sum {
				return nil, "", fmt.Errorf("image: content digest mismatch (footer %s, content %s)", sum, got)
			}
			// Nothing may follow the footer.
			if extra, err := body.ReadByte(); err == nil {
				return nil, "", fmt.Errorf("image: body continues past its footer (0x%02x)", extra)
			} else if err != io.EOF {
				return nil, "", fmt.Errorf("image: reading past footer: %w", err)
			}
			img, err := assemble(h, byName)
			if err != nil {
				return nil, "", err
			}
			return img, sum, nil
		}
		rest, ok := strings.CutPrefix(line, sectionPrefix)
		if !ok {
			return nil, "", fmt.Errorf("image: unexpected body line %q", line)
		}
		var name, sum string
		var size int
		if _, err := fmt.Sscanf(rest, "%s bytes=%d fnv1a=%s", &name, &size, &sum); err != nil {
			return nil, "", fmt.Errorf("image: malformed section header %q", line)
		}
		if size < 0 || size > maxSectionLen {
			return nil, "", fmt.Errorf("image: section %q declares %d bytes", name, size)
		}
		if _, dup := byName[name]; dup {
			return nil, "", fmt.Errorf("image: duplicate section %q", name)
		}
		payload, err := readPayload(body, size)
		if err != nil {
			return nil, "", fmt.Errorf("image: section %q truncated: %w", name, err)
		}
		if nl, err := body.ReadByte(); err != nil || nl != '\n' {
			return nil, "", fmt.Errorf("image: section %q is not newline-terminated", name)
		}
		if fnv1aHex(payload) != sum {
			return nil, "", &CorruptSectionError{Section: name}
		}
		secs = append(secs, section{name: name, payload: payload})
		byName[name] = payload
	}
}

func assemble(h Header, byName map[string][]byte) (*Image, error) {
	img := &Image{Header: h}
	envData, ok := byName[sectionEnv]
	if !ok {
		return nil, fmt.Errorf("image: missing required section %q", sectionEnv)
	}
	if err := json.Unmarshal(envData, &img.Env); err != nil {
		return nil, fmt.Errorf("image: parsing section %q: %w", sectionEnv, err)
	}
	browserData, ok := byName[sectionBrowser]
	if !ok {
		return nil, fmt.Errorf("image: missing required section %q", sectionBrowser)
	}
	if err := json.Unmarshal(browserData, &img.Browser); err != nil {
		return nil, fmt.Errorf("image: parsing section %q: %w", sectionBrowser, err)
	}
	if sessData, ok := byName[sectionSession]; ok {
		if err := json.Unmarshal(sessData, &img.Session); err != nil {
			return nil, fmt.Errorf("image: parsing section %q: %w", sectionSession, err)
		}
	}
	for name := range byName {
		switch name {
		case sectionEnv, sectionBrowser, sectionSession:
		default:
			// A v1 reader only knows the three v1 sections; an unknown
			// one means a v1.x writer extended the format, which the
			// checksummed framing lets us skip safely — but a restored
			// world missing part of its state would be silently wrong,
			// so refuse instead.
			return nil, fmt.Errorf("image: unknown section %q", name)
		}
	}
	return img, nil
}

// Decode parses a whole image from bytes.
func Decode(data []byte) (*Image, string, error) {
	return Read(bytes.NewReader(data))
}

// ReadFile reads the image at path.
func ReadFile(path string) (*Image, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

// IsImage reports whether data opens like an image file.
func IsImage(data []byte) bool {
	return strings.HasPrefix(string(data), magicPrefix)
}

// ---- plumbing ----

// byteLineReader reads newline-terminated lines one byte at a time, so
// the plain-text header can be consumed from an unbuffered reader
// without swallowing the start of the gzip stream (same idiom as trace
// archives).
type byteLineReader struct {
	r io.Reader
}

func (b byteLineReader) line() (string, error) {
	var sb strings.Builder
	var one [1]byte
	for {
		n, err := b.r.Read(one[:])
		if n == 1 {
			if one[0] == '\n' {
				return sb.String(), nil
			}
			sb.WriteByte(one[0])
			if sb.Len() > maxHeaderLen {
				return "", fmt.Errorf("image: header line too long")
			}
			continue
		}
		if err == io.EOF {
			return "", io.ErrUnexpectedEOF
		}
		if err != nil {
			return "", err
		}
	}
}

// directReadLen is the largest declared section size allocated up
// front. Larger sections grow with the bytes actually present, so a
// forged section header of a few bytes cannot force a maxSectionLen
// allocation.
const directReadLen = 1 << 20

// readPayload reads exactly size bytes of section payload.
func readPayload(body io.Reader, size int) ([]byte, error) {
	if size <= directReadLen {
		payload := make([]byte, size)
		_, err := io.ReadFull(body, payload)
		return payload, err
	}
	payload, err := io.ReadAll(io.LimitReader(body, int64(size)))
	if err == nil && len(payload) < size {
		err = io.ErrUnexpectedEOF
	}
	return payload, err
}

func bodyLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err == io.EOF {
		return "", fmt.Errorf("image: body truncated (no footer)")
	}
	if err != nil {
		return "", fmt.Errorf("image: reading body: %w", err)
	}
	return strings.TrimSuffix(line, "\n"), nil
}
