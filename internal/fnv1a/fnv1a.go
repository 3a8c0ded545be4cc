// Package fnv1a holds the FNV-1a hashing primitives shared by the
// repository's incremental digests and bounded caches (campaign prefix
// digests, the script parse cache, the browser page-template cache,
// distrib's completion checksums and worker jitter seeds).
// One copy of the constants and byte loop keeps the call sites in sync.
package fnv1a

// Offset is the FNV-1a 64-bit offset basis — the hash of nothing.
const Offset uint64 = 14695981039346656037

// Prime is the FNV-1a 64-bit prime.
const Prime uint64 = 1099511628211

// AddByte chains one byte into h.
func AddByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= Prime
	return h
}

// AddString chains every byte of s into h.
func AddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= Prime
	}
	return h
}

// AddUint64 chains v into h, low byte first.
func AddUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= Prime
		v >>= 8
	}
	return h
}

// String hashes s from the offset basis.
func String(s string) uint64 {
	return AddString(Offset, s)
}

// Bytes hashes b from the offset basis; it equals hash/fnv's New64a
// over the same bytes.
func Bytes(b []byte) uint64 {
	h := Offset
	for _, c := range b {
		h ^= uint64(c)
		h *= Prime
	}
	return h
}
