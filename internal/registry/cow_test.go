package registry_test

import (
	"sync"
	"testing"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
)

// TestForkSnapshotRacesParentMutation races a fork's first access to an
// application against the parent's next request to it. The fork must
// capture the state as it stood at Fork, never the parent's later
// login: the parent's touch may only return once every pending fork
// snapshot has been taken, even when the fork's own goroutine is the
// one taking it.
func TestForkSnapshotRacesParentMutation(t *testing.T) {
	for i := range 20000 {
		env := registry.MustNewEnv(browser.UserMode, registry.WithApps(apps.YahooApp()))
		env.MustState(apps.YahooName) // materialized, as a live campaign world is
		f, err := env.Fork()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var seen int
		wg.Add(2)
		go func() {
			defer wg.Done()
			seen = f.MustState(apps.YahooName).(*apps.Yahoo).Logins()
		}()
		go func() {
			defer wg.Done()
			if _, err := env.Network.Fetch(netsim.NewRequest("GET", apps.YahooURL+"login?user=a&pass=b")); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if got := env.MustState(apps.YahooName).(*apps.Yahoo).Logins(); got != 1 {
			t.Fatalf("iteration %d: parent logins = %d, want 1", i, got)
		}
		if seen != 0 {
			t.Fatalf("iteration %d: fork saw %d logins made after the fork, want 0", i, seen)
		}
	}
}
