package spell

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dslab-epfl/warr/internal/humanerr"
)

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"privacy", "privacy", 0},
		{"privacy", "pricavy", 2},  // transposition = distance 2
		{"privacy", "privcy", 1},   // omission
		{"privacy", "privaacy", 1}, // insertion
		{"privacy", "privzcy", 1},  // substitution
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	clamp := func(s string) string {
		if len(s) > 24 {
			return s[:24]
		}
		return s
	}
	symmetric := func(a, b string) bool {
		a, b = clamp(a), clamp(b)
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool {
		a = clamp(a)
		return Levenshtein(a, a) == 0
	}
	if err := quick.Check(identity, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("identity:", err)
	}
	bounded := func(a, b string) bool {
		a, b = clamp(a), clamp(b)
		d := Levenshtein(a, b)
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		min := len(a) - len(b)
		if min < 0 {
			min = -min
		}
		return d >= min && d <= max
	}
	if err := quick.Check(bounded, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("bounds:", err)
	}
	triangle := func(a, b, c string) bool {
		a, b, c = clamp(a), clamp(b), clamp(c)
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("triangle inequality:", err)
	}
}

var testCorpus = []string{
	"facebook privacy settings",
	"world cup south africa",
	"android phones comparison",
	"facebook login page",
}

func TestDictionaryBuild(t *testing.T) {
	d := NewDictionary(testCorpus)
	if !d.Contains("facebook") || !d.Contains("privacy") {
		t.Error("dictionary missing corpus words")
	}
	if d.Contains("nonexistent") {
		t.Error("dictionary contains absent word")
	}
	if got := d.Freq("facebook"); got != 2 {
		t.Errorf("freq(facebook) = %d, want 2", got)
	}
	if d.Len() == 0 {
		t.Error("empty dictionary")
	}
}

func TestWithoutTailDropsDeterministically(t *testing.T) {
	d := NewDictionary(testCorpus)
	a := d.WithoutTail(3)
	b := d.WithoutTail(3)
	if a.Len() != b.Len() {
		t.Error("WithoutTail is nondeterministic")
	}
	if a.Len() >= d.Len() {
		t.Errorf("WithoutTail dropped nothing: %d vs %d", a.Len(), d.Len())
	}
	if got := d.WithoutTail(0).Len(); got != d.Len() {
		t.Errorf("keepMod=0 should keep everything, got %d of %d", got, d.Len())
	}
}

func TestCorrectorFixesDistance1(t *testing.T) {
	d := NewDictionary(testCorpus)
	c := NewCorrector("d1", d, 1)
	got, changed := c.Correct("facebook privzcy settings")
	if !changed || got != "facebook privacy settings" {
		t.Errorf("Correct = %q (changed=%v)", got, changed)
	}
}

func TestDistance1CorrectorMissesTransposition(t *testing.T) {
	d := NewDictionary(testCorpus)
	c1 := NewCorrector("d1", d, 1)
	c2 := NewCorrector("d2", d, 2)
	const typoed = "facebook pricavy settings" // transposition, distance 2

	got1, _ := c1.Correct(typoed)
	if got1 == "facebook privacy settings" {
		t.Error("distance-1 corrector should miss a transposition")
	}
	got2, changed := c2.Correct(typoed)
	if !changed || got2 != "facebook privacy settings" {
		t.Errorf("distance-2 corrector = %q", got2)
	}
}

func TestCorrectorLeavesKnownWordsAlone(t *testing.T) {
	d := NewDictionary(testCorpus)
	c := NewCorrector("d2", d, 2)
	got, changed := c.Correct("facebook privacy settings")
	if changed || got != "facebook privacy settings" {
		t.Errorf("known query changed to %q", got)
	}
}

func TestCorrectorTieBreaksByFrequency(t *testing.T) {
	// "page" (freq 1) vs "facebook" (freq 2): a word equidistant from
	// two candidates must pick the more frequent one deterministically.
	d := NewDictionary([]string{"cat hat", "cat mat", "cat"})
	c := NewCorrector("tie", d, 1)
	got, changed := c.Correct("bat")
	if !changed || got != "cat" {
		t.Errorf("tie broke to %q, want the most frequent candidate", got)
	}
}

func TestQueryCorrectorSnapsToCorpus(t *testing.T) {
	qc := NewQueryCorrector("google", testCorpus, 4, nil)
	got, changed := qc.Correct("facebook pricavy settings")
	if !changed || got != "facebook privacy settings" {
		t.Errorf("QueryCorrector = %q (changed=%v)", got, changed)
	}
	// Known queries pass through unchanged.
	got, changed = qc.Correct("world cup south africa")
	if changed {
		t.Errorf("known query changed to %q", got)
	}
}

func TestQueryCorrectorFallback(t *testing.T) {
	dict := NewDictionary(testCorpus)
	word := NewCorrector("w", dict, 2)
	qc := NewQueryCorrector("google", testCorpus[:1], 2, word)
	// Far from the 1-query corpus, but word-level fixable.
	got, changed := qc.Correct("world cup sputh africa")
	if !changed || got != "world cup south africa" {
		t.Errorf("fallback = %q (changed=%v)", got, changed)
	}
}

func TestQueryCorrectorCaseInsensitive(t *testing.T) {
	qc := NewQueryCorrector("google", testCorpus, 4, nil)
	got, changed := qc.Correct("FACEBOOK pricavy SETTINGS")
	if !changed || got != "facebook privacy settings" {
		t.Errorf("got %q", got)
	}
}

func TestWords(t *testing.T) {
	got := Words("  Hello   WORLD ")
	if len(got) != 2 || got[0] != "hello" || got[1] != "world" {
		t.Errorf("Words = %v", got)
	}
}

func TestCorrectorUncorrectableWordSurvives(t *testing.T) {
	d := NewDictionary(testCorpus)
	c := NewCorrector("d1", d, 1)
	got, changed := c.Correct("zzzzzzzzzz")
	if changed || !strings.Contains(got, "zzzzzzzzzz") {
		t.Errorf("uncorrectable word mangled: %q", got)
	}
}

// FuzzEditDistance checks the bounded kernel against the reference
// Levenshtein: equal to it whenever it is at most the bound, and above
// the bound otherwise.
func FuzzEditDistance(f *testing.F) {
	f.Add("kitten", "sitting", 3)
	f.Add("privacy", "pricavy", 1)
	f.Add("facebook privacy settings", "facebook pricavy settings", 2)
	f.Add("", "abc", 0)
	f.Add("abc", "", 5)
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 40), 4) // heap rows
	f.Fuzz(func(t *testing.T, a, b string, bound int) {
		if len(a) > 200 || len(b) > 200 {
			t.Skip("the reference distance is quadratic")
		}
		bound %= 16
		want := Levenshtein(a, b)
		got := withinDistance(a, b, bound)
		if want <= bound && got != want {
			t.Fatalf("withinDistance(%q, %q, %d) = %d, want %d", a, b, bound, got, want)
		}
		if want > bound && got <= bound {
			t.Fatalf("withinDistance(%q, %q, %d) = %d, want > %d (Levenshtein %d)", a, b, bound, got, bound, want)
		}
	})
}

func TestWithinDistanceShortWordsDoNotAllocate(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		withinDistance("facebook pricavy settings", "facebook privacy settings", 4)
	})
	if allocs != 0 {
		t.Errorf("withinDistance allocated %v times per call, want 0", allocs)
	}
}

// refBestMatch and refQueryCorrect are the correctors as first written,
// with the full Levenshtein against every candidate; the bounded kernel
// must pick exactly what they pick.
func refBestMatch(d *Dictionary, maxDistance int, w string) (string, bool) {
	best, bestDist, bestFreq := "", maxDistance+1, -1
	for _, cand := range d.words {
		dist := Levenshtein(w, cand)
		if dist > maxDistance {
			continue
		}
		if f := d.freq[cand]; dist < bestDist || (dist == bestDist && f > bestFreq) {
			best, bestDist, bestFreq = cand, dist, f
		}
	}
	return best, best != ""
}

func refCorrect(d *Dictionary, maxDistance int, query string) (string, bool) {
	words := Words(query)
	changed := false
	for i, w := range words {
		if d.Contains(w) {
			continue
		}
		if best, ok := refBestMatch(d, maxDistance, w); ok {
			words[i], changed = best, true
		}
	}
	return strings.Join(words, " "), changed
}

func refQueryCorrect(corpus []string, maxDistance int, query string) (string, bool) {
	q := normalizeQuery(query)
	best, bestDist := "", maxDistance+1
	for _, cand := range corpus {
		nc := normalizeQuery(cand)
		if nc == q {
			return query, false
		}
		if dist := Levenshtein(q, nc); dist < bestDist {
			best, bestDist = nc, dist
		}
	}
	if best != "" {
		return best, true
	}
	return query, false
}

func TestCorrectorsMatchReferenceOnTable1Queries(t *testing.T) {
	full := NewDictionary(humanerr.Queries186)
	pruned := full.WithoutTail(15)
	queryDists := []int{1, 4, 8}
	var qcs []*QueryCorrector
	for _, maxDist := range queryDists {
		qcs = append(qcs, NewQueryCorrector("q", humanerr.Queries186, maxDist, nil))
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, q := range humanerr.Queries186 {
			typoed := humanerr.InjectTypoQuery(rng, q).Typoed
			for _, query := range []string{q, typoed} {
				for maxDist := 0; maxDist <= 3; maxDist++ {
					for _, d := range []*Dictionary{full, pruned} {
						got, gotOK := NewCorrector("c", d, maxDist).Correct(query)
						want, wantOK := refCorrect(d, maxDist, query)
						if got != want || gotOK != wantOK {
							t.Fatalf("Corrector(%d).Correct(%q) = %q %v, reference %q %v", maxDist, query, got, gotOK, want, wantOK)
						}
					}
				}
				for i, maxDist := range queryDists {
					got, gotOK := qcs[i].Correct(query)
					want, wantOK := refQueryCorrect(humanerr.Queries186, maxDist, query)
					if got != want || gotOK != wantOK {
						t.Fatalf("QueryCorrector(%d).Correct(%q) = %q %v, reference %q %v", maxDist, query, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
}
