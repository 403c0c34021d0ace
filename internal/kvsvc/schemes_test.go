// External test package: the check reads the scheme table the way an
// operator reading a gosmrd failure would.
package kvsvc_test

import (
	"strings"
	"testing"

	"github.com/gosmr/gosmr/internal/kvsvc"
	"github.com/gosmr/gosmr/internal/scheme"
)

// TestUnknownSchemeErrorListsAll: rejecting an unknown scheme must name
// every servable scheme of the table, so operators reading a
// gosmrd/kvload failure see the real current list instead of a stale
// help string.
func TestUnknownSchemeErrorListsAll(t *testing.T) {
	_, err := kvsvc.NewStore(kvsvc.Config{Scheme: "nosuch"})
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	servable := scheme.Names(func(s *scheme.Desc) bool { return s.Servable })
	if len(servable) == 0 {
		t.Fatal("the table has no servable scheme")
	}
	for _, s := range servable {
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("error %q does not mention valid scheme %q", err, s)
		}
	}
}
