package multiuser

// Schedules: the replayable value at the heart of the interleaving
// explorer. A schedule is a realized interleaving of user turns — one
// user index per slot — and running a world under a schedule is fully
// deterministic, so the schedule string IS the reproduction recipe for
// any contention finding, the same way a trace archive reproduces a
// single-user bug.
//
// A schedule must be a linear extension of the users' per-user op
// chains: user u appears exactly as many times as u has ops, and u's
// k-th appearance runs u's k-th op. The base schedule is fully
// sequential (user 0's whole script, then user 1's, ...), which is
// contention-free by construction; the explorer perturbs it into
// seeded random linear extensions, deduped by a chained two-lane
// FNV-1a digest — the same dedupe idiom the campaign PruneTable uses
// for trace prefixes.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/dslab-epfl/warr/internal/fnv1a"
)

// Schedule is one interleaving: Slots[k] is the user acting at slot k.
type Schedule struct {
	// Users is the number of users in the world the schedule drives.
	Users int
	// Slots is the turn order, one entry per op across all users.
	Slots []int
}

// String renders the schedule in its strict codec form:
// "users:N;slots:a,b,c". ParseSchedule inverts it exactly.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "users:%d;slots:", s.Users)
	for i, u := range s.Slots {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(u))
	}
	return b.String()
}

// ParseSchedule parses the codec form. It is strict: both fields must
// appear in order, every number must be spelled canonically (no sign,
// no leading zeros), every slot must be a user index in [0, users), and
// trailing garbage is an error — a schedule that survives a round trip
// is byte-identical.
func ParseSchedule(text string) (Schedule, error) {
	rest, ok := strings.CutPrefix(text, "users:")
	if !ok {
		return Schedule{}, fmt.Errorf("multiuser: schedule %q: missing users: prefix", text)
	}
	numStr, slotsPart, ok := strings.Cut(rest, ";slots:")
	if !ok {
		return Schedule{}, fmt.Errorf("multiuser: schedule %q: missing ;slots: section", text)
	}
	users, ok := parseCanonical(numStr)
	if !ok || users < 1 {
		return Schedule{}, fmt.Errorf("multiuser: schedule %q: bad user count %q", text, numStr)
	}
	s := Schedule{Users: users}
	if slotsPart == "" {
		return s, nil
	}
	for _, f := range strings.Split(slotsPart, ",") {
		u, ok := parseCanonical(f)
		if !ok || u < 0 || u >= users {
			return Schedule{}, fmt.Errorf("multiuser: schedule %q: bad slot %q", text, f)
		}
		s.Slots = append(s.Slots, u)
	}
	return s, nil
}

// parseCanonical parses a decimal number spelled exactly as
// strconv.Itoa writes it; "+1" and "007" are rejected.
func parseCanonical(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && s == strconv.Itoa(n)
}

// scheduleDigest identifies one schedule. Two independent 64-bit lanes
// (distinct bases, reversed visit order), exactly like the campaign
// prefix digests: dedupe acts on digest equality alone, and one lane's
// 2^-64 collision odds per pair become 2^-128 with the second.
type scheduleDigest struct {
	h1, h2 uint64
}

// digest hashes the schedule's user count and slot sequence.
func (s Schedule) digest() scheduleDigest {
	h1 := fnv1a.AddUint64(fnv1a.Offset, uint64(s.Users))
	h2 := fnv1a.AddUint64(fnv1a.AddByte(fnv1a.Offset, 0x9e), uint64(s.Users))
	for i := range s.Slots {
		h1 = fnv1a.AddUint64(h1, uint64(s.Slots[i]))
		h2 = fnv1a.AddUint64(h2, uint64(s.Slots[len(s.Slots)-1-i]))
	}
	return scheduleDigest{h1: h1, h2: h2}
}

// Sequential returns the contention-free base schedule for the given
// per-user op counts: user 0's whole chain, then user 1's, and so on.
func Sequential(opCounts []int) Schedule {
	s := Schedule{Users: len(opCounts)}
	for u, n := range opCounts {
		for i := 0; i < n; i++ {
			s.Slots = append(s.Slots, u)
		}
	}
	return s
}

// randomExtension draws one uniform random linear extension of the
// per-user op chains: at every slot, pick uniformly among the users
// with ops remaining. Seeded rng makes the draw deterministic.
func randomExtension(opCounts []int, rng *rand.Rand) Schedule {
	remaining := append([]int(nil), opCounts...)
	total := 0
	for _, n := range remaining {
		total += n
	}
	s := Schedule{Users: len(opCounts), Slots: make([]int, 0, total)}
	live := make([]int, 0, len(remaining))
	for u, n := range remaining {
		if n > 0 {
			live = append(live, u)
		}
	}
	for total > 0 {
		k := rng.Intn(len(live))
		u := live[k]
		s.Slots = append(s.Slots, u)
		remaining[u]--
		total--
		if remaining[u] == 0 {
			live = append(live[:k], live[k+1:]...)
		}
	}
	return s
}

// ExploreSchedules generates up to budget distinct schedules for the
// given per-user op chains: the sequential base first, then seeded
// random linear extensions, deduped by digest. The result depends only
// on (opCounts, seed, budget) — the coordinator of a distributed load
// campaign generates the very same list every worker executes. The
// attempt budget is bounded, so few-user worlds (whose linear
// extensions run out) return fewer than budget schedules rather than
// spinning.
func ExploreSchedules(opCounts []int, seed int64, budget int) []Schedule {
	if budget < 1 {
		budget = 1
	}
	seen := make(map[scheduleDigest]struct{}, budget)
	base := Sequential(opCounts)
	seen[base.digest()] = struct{}{}
	out := []Schedule{base}
	rng := rand.New(rand.NewSource(seed))
	for attempts := 0; len(out) < budget && attempts < budget*16+64; attempts++ {
		s := randomExtension(opCounts, rng)
		d := s.digest()
		if _, dup := seen[d]; dup {
			continue
		}
		seen[d] = struct{}{}
		out = append(out, s)
	}
	return out
}

// validate checks that the schedule is a linear extension of the given
// per-user op chains.
func (s Schedule) validate(opCounts []int) error {
	if s.Users != len(opCounts) {
		return fmt.Errorf("multiuser: schedule for %d users driving a %d-user world", s.Users, len(opCounts))
	}
	used := make([]int, len(opCounts))
	for i, u := range s.Slots {
		if u < 0 || u >= len(opCounts) {
			return fmt.Errorf("multiuser: schedule slot %d names user %d of %d", i, u, len(opCounts))
		}
		used[u]++
		if used[u] > opCounts[u] {
			return fmt.Errorf("multiuser: schedule gives user %d more turns than its %d ops", u, opCounts[u])
		}
	}
	for u, n := range used {
		if n != opCounts[u] {
			return fmt.Errorf("multiuser: schedule gives user %d %d of %d turns", u, n, opCounts[u])
		}
	}
	return nil
}
