package apps

import "strings"

// replaceOnce replaces the first occurrence of old with new and panics if
// old is absent — the templates in this package are static, so a miss is a
// programming error, not input-dependent.
func replaceOnce(s, old, new string) string {
	if !strings.Contains(s, old) {
		panic("apps: template fragment not found: " + old)
	}
	return strings.Replace(s, old, new, 1)
}
