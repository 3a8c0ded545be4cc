package trace

// Test-only bridges: the corpus tests live in the external trace_test
// package (so they can link public App plugins like apps/calendar into
// the registry), and reach these unexported helpers through them.
var (
	// Archives lists the corpus archives in a directory, sorted.
	Archives = archives
	// DiffLines renders the corpus runner's minimal line diff.
	DiffLines = diffLines
)
