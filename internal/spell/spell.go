// Package spell implements the query spell-checking substrate behind the
// three simulated search engines of Table I. The paper measures how well
// Google, Bing, and Yahoo! detect and fix a typo injected into each of
// 186 frequent queries (Google 100%, Bing 59.1%, Yahoo 84.4%).
//
// The engines differ along two axes that reproduce that spread:
//
//   - maximum edit distance considered: a distance-1 corrector cannot fix
//     transposition typos (Levenshtein distance 2), which is the dominant
//     reason the Bing-shaped engine trails;
//   - dictionary coverage: the Yahoo-shaped engine's dictionary misses a
//     deterministic slice of rare terms, so typos in those terms go
//     unfixed.
package spell

import (
	"hash/fnv"
	"sort"
	"strings"
)

// Levenshtein returns the edit distance between a and b (unit costs).
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// distanceBufLen is the longest second operand (plus one) whose DP rows
// withinDistance keeps on the stack; every corpus word and query fits.
const distanceBufLen = 64

// withinDistance returns Levenshtein(a, b) when that is at most bound,
// and bound+1 otherwise. It fills only the diagonal band |i-j| <= bound,
// where every cell outside holds more than bound, and stops as soon as a
// row's band exceeds bound: rows never fall below their predecessor's
// minimum (Ukkonen, "Algorithms for approximate string matching", 1985).
// Cells are clamped to bound+1, which keeps every value <= bound exact.
func withinDistance(a, b string, bound int) int {
	la, lb := len(a), len(b)
	if bound < 0 || la-lb > bound || lb-la > bound {
		return bound + 1
	}
	far := bound + 1
	var buf [2 * distanceBufLen]int
	var prev, cur []int
	if lb < distanceBufLen {
		prev, cur = buf[:lb+1], buf[distanceBufLen:distanceBufLen+lb+1]
	} else {
		prev, cur = make([]int, lb+1), make([]int, lb+1)
	}
	for j := range prev {
		prev[j] = min(j, far)
	}
	for i := 1; i <= la; i++ {
		lo, hi := max(1, i-bound), min(lb, i+bound)
		cur[lo-1] = far
		if lo == 1 {
			cur[0] = min(i, far)
		}
		rowMin := cur[lo-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			v := min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost, far)
			cur[j] = v
			rowMin = min(rowMin, v)
		}
		if hi < lb {
			cur[hi+1] = far
		}
		if rowMin > bound {
			return far
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Dictionary is a spelling dictionary with corpus frequencies.
type Dictionary struct {
	freq  map[string]int
	words []string // deterministic iteration order
}

// NewDictionary builds a dictionary from a corpus of queries: every word
// of every query enters with its occurrence count.
func NewDictionary(corpus []string) *Dictionary {
	d := &Dictionary{freq: make(map[string]int)}
	for _, q := range corpus {
		for _, w := range Words(q) {
			if d.freq[w] == 0 {
				d.words = append(d.words, w)
			}
			d.freq[w]++
		}
	}
	sort.Strings(d.words)
	return d
}

// Words splits a query into lowercase words.
func Words(q string) []string {
	return strings.Fields(strings.ToLower(q))
}

// Contains reports whether w is a dictionary word.
func (d *Dictionary) Contains(w string) bool { return d.freq[w] > 0 }

// Freq returns w's corpus frequency.
func (d *Dictionary) Freq(w string) int { return d.freq[w] }

// Len returns the number of distinct words.
func (d *Dictionary) Len() int { return len(d.words) }

// WithoutTail returns a copy of the dictionary missing a deterministic
// fraction of words — models an engine whose dictionary has poorer
// coverage of rare terms. keepMod=6 drops roughly one word in six.
func (d *Dictionary) WithoutTail(keepMod uint32) *Dictionary {
	out := &Dictionary{freq: make(map[string]int)}
	for _, w := range d.words {
		if keepMod != 0 && hashWord(w)%keepMod == 0 {
			continue
		}
		out.freq[w] = d.freq[w]
		out.words = append(out.words, w)
	}
	return out
}

func hashWord(w string) uint32 {
	h := fnv.New32a()
	// hash.Hash32 Write never fails.
	_, _ = h.Write([]byte(w))
	return h.Sum32()
}

// Corrector fixes spelling in queries.
type Corrector struct {
	// Name identifies the engine flavour in reports.
	Name string
	dict *Dictionary
	// maxDistance is the largest edit distance the corrector searches.
	maxDistance int
}

// NewCorrector builds a corrector over a dictionary.
func NewCorrector(name string, dict *Dictionary, maxDistance int) *Corrector {
	return &Corrector{Name: name, dict: dict, maxDistance: maxDistance}
}

// Correct returns the corrected query and whether any word changed.
func (c *Corrector) Correct(query string) (string, bool) {
	words := Words(query)
	changed := false
	for i, w := range words {
		if c.dict.Contains(w) {
			continue
		}
		if best, ok := c.bestMatch(w); ok {
			words[i] = best
			changed = true
		}
	}
	return strings.Join(words, " "), changed
}

// bestMatch finds the dictionary word nearest to w within the distance
// budget. Ties break toward higher corpus frequency, then lexicographic
// order, keeping corrections deterministic.
func (c *Corrector) bestMatch(w string) (string, bool) {
	best := ""
	bestDist := c.maxDistance + 1
	bestFreq := -1
	for _, cand := range c.dict.words {
		// Cheap length filter before the O(nm) distance.
		dl := len(cand) - len(w)
		if dl < 0 {
			dl = -dl
		}
		if dl >= bestDist {
			continue
		}
		dist := withinDistance(w, cand, min(bestDist, c.maxDistance))
		if dist > c.maxDistance {
			continue
		}
		f := c.dict.freq[cand]
		if dist < bestDist || (dist == bestDist && f > bestFreq) {
			best, bestDist, bestFreq = cand, dist, f
		}
	}
	return best, best != ""
}
