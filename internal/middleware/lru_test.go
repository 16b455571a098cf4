package middleware

import (
	"slices"
	"testing"
)

// lruKeys lists c's keys from most to least recently used.
func lruKeys(c *lru[string, int]) []string {
	var out []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruItem[string, int]).key)
	}
	return out
}

// TestLRU: eviction takes the least recently used entry and tells onEvict,
// get and put both count as a use, put replaces the value, and remove and
// removeFunc take entries out without calling onEvict.
func TestLRU(t *testing.T) {
	var evicted []string
	c := newLRU(3, func(k string, v int) { evicted = append(evicted, k) })
	c.put("a", 1)
	c.put("b", 2)
	c.put("c", 3)
	c.put("d", 4) // evicts a
	if want := []string{"a"}; !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("evicted key still present")
	}

	// get touches: b moves ahead of c and d, so c is evicted next.
	if v, ok := c.get("b"); !ok || v != 2 {
		t.Fatalf("get(b) = %d, %v", v, ok)
	}
	c.put("e", 5)
	if want := []string{"a", "c"}; !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v after touching b, want %v", evicted, want)
	}

	// put on a present key replaces its value and touches it.
	c.put("d", 40)
	if v, _ := c.get("d"); v != 40 {
		t.Fatalf("get(d) = %d after replace, want 40", v)
	}
	if want := []string{"d", "e", "b"}; !slices.Equal(lruKeys(c), want) {
		t.Fatalf("order %v, want %v", lruKeys(c), want)
	}

	// remove reports presence and does not evict.
	if !c.remove("e") || c.remove("e") || c.remove("zz") {
		t.Fatal("remove reported the wrong presence")
	}
	c.put("f", 6)
	c.removeFunc(func(k string, v int) bool { return v > 10 || k == "b" })
	if want := []string{"f"}; !slices.Equal(lruKeys(c), want) || c.len() != 1 || len(c.items) != 1 {
		t.Fatalf("after removeFunc: order %v, len %d, want %v", lruKeys(c), c.len(), want)
	}
	if want := []string{"a", "c"}; !slices.Equal(evicted, want) {
		t.Fatalf("remove or removeFunc called onEvict: %v", evicted)
	}
}
