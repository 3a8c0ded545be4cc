package fnv1a

import (
	"hash/fnv"
	"testing"
)

// TestMatchesHashFNV pins the primitives to the standard library's
// 64-bit FNV-1a, which earlier checksums were computed with.
func TestMatchesHashFNV(t *testing.T) {
	for _, s := range []string{"", "a", "worker-1", `{"worker":"w1","lease":"lease-7"}`} {
		h := fnv.New64a()
		h.Write([]byte(s))
		want := h.Sum64()
		if got := Bytes([]byte(s)); got != want {
			t.Errorf("Bytes(%q) = %#x, want %#x", s, got, want)
		}
		if got := String(s); got != want {
			t.Errorf("String(%q) = %#x, want %#x", s, got, want)
		}
	}
}
