package scheme

import (
	"strings"
	"testing"
)

// FuzzParseSpec proves the spec parser never panics on arbitrary input
// and that every accepted spec reaches a fixed point: its canonical
// form re-parses to the same canonical form, and validation never
// panics either. The seed corpus runs on every plain `go test`; fuzz
// with `go test -fuzz=FuzzParseSpec ./internal/scheme`.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"", "load", "aest", "load+latent", "load:beta=0.8+latent:window=12",
		"fixed:theta=2e6+topk:k=50", "misragries:k=20",
		"spacesaving", " load : beta = 0.7 ", "load+latent+single",
		"load:beta=0.8,beta=0.9", "a+b+c", ":::", "+=,", "load:", "+",
		"load:beta=2e+06", "latent:window=-1", "\x00", "löad+låtent",
		strings.Repeat("a", 1024), strings.Repeat("load+", 64),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := Parse(in) // must not panic
		if err != nil {
			return
		}
		canon := sp.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, in, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", in, canon, got)
		}
		_ = sp.Validate() // must not panic either way
		_ = sp.Name()
		_, _ = sp.LatentWindow()
	})
}
