package sparql

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/store"
)

// TestIDTableMatchesMap: seeded tuples of width 0–6, NoID included, half
// drawn from a small domain (duplicates) and half from a large one (enough
// distinct tuples for several growths). Every add's index and "added" flag
// must equal a map[string]int model's, where a tuple's index is its
// first-insertion rank; addAt over a row with an unbound slot in front
// must agree too.
func TestIDTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	for width := 0; width <= 6; width++ {
		tab, viaAt := idTable{width: width}, idTable{width: width + 1}
		slots := []int{-1}
		for j := 0; j < width; j++ {
			slots = append(slots, j)
		}
		model := map[string]int{}
		key := make([]store.ID, width)
		for i := 0; i < 4000; i++ {
			domain := 3
			if i%2 == 1 {
				domain = 1 << 20
			}
			for j := range key {
				key[j] = store.ID(rng.IntN(domain)) // 0 is NoID
			}
			k := fmt.Sprint(key)
			want, dup := model[k]
			if !dup {
				want = len(model)
				model[k] = want
			}
			got, added := tab.add(key)
			if got != want || added == dup {
				t.Fatalf("width %d, add #%d %v: (%d, %v), model (%d, %v)", width, i, key, got, added, want, !dup)
			}
			if got, added := viaAt.addAt(key, slots); got != want || added == dup {
				t.Fatalf("width %d, addAt #%d %v: (%d, %v), model (%d, %v)", width, i, key, got, added, want, !dup)
			}
		}
		if tab.n != len(model) || (width > 0 && len(tab.index) < 1024) {
			t.Fatalf("width %d: %d tuples (model %d) in an index of %d: growth not exercised", width, tab.n, len(model), len(tab.index))
		}
	}
}
