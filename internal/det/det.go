// Package det holds the tiny deterministic-iteration helpers the
// byte-identical output contract leans on everywhere a Go map meets an
// emitter: collect the keys, sort them, iterate the sorted slice. The
// helpers centralise the collect-then-sort idiom so call sites read as
// one line and the detflow analyzer sees the sanctioned shape in a
// single audited place.
package det

import (
	"cmp"
	"slices"
)

// SortedKeys returns m's keys in ascending order — the canonical
// deterministic iteration order for emitting map contents. A nil or
// empty map yields an empty, non-nil slice so callers can range
// unconditionally.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// SortedKeysFunc returns m's keys ordered by the given comparison
// function, for key types without a natural order (or orders other
// than ascending). cmp follows the slices.SortFunc contract: negative
// when a sorts before b. The sort is stable in effect because map keys
// are unique.
func SortedKeysFunc[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}
