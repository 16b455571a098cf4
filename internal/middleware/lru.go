package middleware

import "container/list"

// lru is a bounded map that evicts its least recently used entry once it
// holds more than cap. It has no lock of its own: every owner guards it with
// the mutex it already holds around the rest of its state.
//
// get and put count as a use; remove and removeFunc take entries out without
// calling onEvict, which fires only for capacity evictions.
type lru[K comparable, V any] struct {
	cap     int
	items   map[K]*list.Element // of *lruItem[K, V]
	order   *list.List          // front = most recently used
	onEvict func(K, V)
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns an empty lru holding at most cap entries (cap must be
// positive). onEvict, if non-nil, is told of every capacity eviction.
func newLRU[K comparable, V any](cap int, onEvict func(K, V)) *lru[K, V] {
	return &lru[K, V]{cap: cap, items: make(map[K]*list.Element), order: list.New(), onEvict: onEvict}
}

// get returns key's value and marks it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// put stores val under key, replacing any value already there, marks it most
// recently used and, if that takes the lru past cap, evicts the least
// recently used entry.
func (c *lru[K, V]) put(key K, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruItem[K, V]{key: key, val: val})
	if c.order.Len() > c.cap {
		it := c.order.Remove(c.order.Back()).(*lruItem[K, V])
		delete(c.items, it.key)
		if c.onEvict != nil {
			c.onEvict(it.key, it.val)
		}
	}
}

// remove deletes key, reporting whether it was present.
func (c *lru[K, V]) remove(key K) bool {
	el, ok := c.items[key]
	if ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
	return ok
}

// removeFunc deletes every entry for which drop returns true.
func (c *lru[K, V]) removeFunc(drop func(K, V) bool) {
	for key, el := range c.items {
		if drop(key, el.Value.(*lruItem[K, V]).val) {
			c.order.Remove(el)
			delete(c.items, key)
		}
	}
}

// len reports the number of entries.
func (c *lru[K, V]) len() int { return len(c.items) }
