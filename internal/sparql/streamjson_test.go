package sparql

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONStringWordAtATime: a byte that needs a look, at every position
// of every eight-byte word of a string and beside others, is escaped as
// encoding/json escapes it, so the word-at-a-time skip never steps over
// one.
func TestJSONStringWordAtATime(t *testing.T) {
	specials := []string{"\x00", "\x1f", " ", "\x7f", "\"", "\\", "<", ">", "&", "\n", "é", " ", " ", "\xff", "\xc3", "\U0001F600"}
	for _, sp := range specials {
		for n := 1; n <= 26; n++ {
			for at := 0; at < n; at++ {
				for _, fill := range []string{"a", "~", "!", "%"} {
					src := strings.Repeat(fill, at) + sp + strings.Repeat(fill, n-at-1)
					for _, s := range []string{src, src + sp, sp + src} {
						want, err := json.Marshal(s)
						if err != nil {
							t.Fatal(err)
						}
						if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
							t.Fatalf("appendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
						}
					}
				}
			}
		}
	}
}

func BenchmarkJSONString(b *testing.B) {
	for _, s := range []string{
		"http://bench.example.org/res/Class10/instance0042",
		"a plain literal of some length, as a label would be",
		"ünïcödé lïtérål wïth åccénts",
	} {
		b.Run(s[:8], func(b *testing.B) {
			var dst []byte
			for b.Loop() {
				dst = appendJSONString(dst[:0], s)
			}
		})
	}
}
