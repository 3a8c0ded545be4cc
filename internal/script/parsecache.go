package script

import (
	"sync"

	"github.com/dslab-epfl/warr/internal/fnv1a"
)

// Process-wide parse cache. Page scripts and inline handlers repeat
// verbatim across page loads, environments, and forks — a campaign
// parses the same few sources thousands of times. Parsed programs are
// immutable (evaluation never writes AST nodes; closures share body
// slices read-only), so one cached program can serve every interpreter
// and every goroutine.
//
// Programs are cached only from a source's second sighting. Some pages
// generate a unique script on every load (GMail embeds freshly minted
// element ids), and caching those one-shot programs retained megabytes
// of dead ASTs for no hits — first sightings therefore record only a
// 64-bit source hash, and the program itself is cached once the hash
// recurs.
//
// Both tables are bounded by two generations, the same scheme as the
// replayer's XPath compile cache: inserts go to the current generation;
// when it fills, the previous generation is dropped, and a hit in the
// previous generation re-inserts, so entries that stay hot survive
// rotation. Parse errors are cached too — a page with a broken script
// reloads just as often.
const parseCacheGen = 1024

var (
	parseMu   sync.RWMutex
	parseCur  = make(map[string]parseEntry)
	parsePrev map[string]parseEntry
	seenCur   = make(map[uint64]struct{})
	seenPrev  map[uint64]struct{}
)

type parseEntry struct {
	prog *program
	err  error
}

// parseCached is parse behind the process-wide cache.
func parseCached(src string) (*program, error) {
	parseMu.RLock()
	if e, ok := parseCur[src]; ok {
		parseMu.RUnlock()
		return e.prog, e.err
	}
	e, hit := parsePrev[src]
	parseMu.RUnlock()
	if !hit {
		e = parseEntry{}
		e.prog, e.err = parse(src)
	}

	h := fnv1a.String(src)
	parseMu.Lock()
	_, seen := seenCur[h]
	if !seen {
		_, seen = seenPrev[h]
	}
	if hit || seen {
		if _, hot := parseCur[src]; !hot {
			if len(parseCur) >= parseCacheGen {
				parsePrev, parseCur = parseCur, make(map[string]parseEntry, parseCacheGen)
			}
			parseCur[src] = e
		}
	} else {
		if len(seenCur) >= parseCacheGen {
			seenPrev, seenCur = seenCur, make(map[uint64]struct{}, parseCacheGen)
		}
		seenCur[h] = struct{}{}
	}
	parseMu.Unlock()
	return e.prog, e.err
}
