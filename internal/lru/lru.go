// Package lru is the byte-bounded least-recently-used cache behind the
// circuit cache (circuitio) and serd's memoized-report cache: entries by
// key, optional alias keys that resolve to an entry and leave with it, and
// Hits/Misses/Evictions counters.
//
// A Cache holds no lock. Its owner serializes every call, so an owner that
// must guard more state under the same lock (circuitio's single-flight
// parse table) needs only one mutex.
package lru

import "container/list"

// Stats is a point-in-time cache observation.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Cache maps keys K, and alias keys A, to values V, bounded to about
// maxBytes: an entry costs the size given to Put plus its aliases' charge.
// The zero value is not usable; construct with New.
type Cache[K, A comparable, V any] struct {
	maxBytes   int64
	maxAliases int           // aliases kept per entry; 0 = no bound
	aliasBytes func(A) int64 // an alias's byte charge; nil = free
	bytes      int64
	entries    map[K]*list.Element
	aliases    map[A]*list.Element
	order      *list.List // of *entry; front = most recently used
	stats      Stats
}

type entry[K, A comparable, V any] struct {
	key     K
	val     V
	size    int64 // the Put size plus the aliases' charge
	aliases []A   // oldest first
}

// New returns an empty cache bounded to maxBytes. Each entry keeps at most
// maxAliases alias keys (0 = no bound), dropping the oldest first, and each
// alias is charged aliasBytes(a) bytes (nil = nothing).
func New[K, A comparable, V any](maxBytes int64, maxAliases int, aliasBytes func(A) int64) *Cache[K, A, V] {
	return &Cache[K, A, V]{
		maxBytes:   maxBytes,
		maxAliases: maxAliases,
		aliasBytes: aliasBytes,
		entries:    map[K]*list.Element{},
		aliases:    map[A]*list.Element{},
		order:      list.New(),
	}
}

// Get returns the value under key k, marking it most recently used and
// counting a hit; an absent key counts a miss.
func (c *Cache[K, A, V]) Get(k K) (V, bool) {
	el, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	return c.hit(el), true
}

// Alias returns the value alias a resolves to, marking it most recently
// used and counting a hit. An absent alias counts nothing: the caller goes
// on to a keyed lookup, which counts its own hit or miss.
func (c *Cache[K, A, V]) Alias(a A) (V, bool) {
	el, ok := c.aliases[a]
	if !ok {
		var zero V
		return zero, false
	}
	return c.hit(el), true
}

func (c *Cache[K, A, V]) hit(el *list.Element) V {
	c.order.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry[K, A, V]).val
}

// Miss counts a miss that no Get saw, such as a load that resolves no key
// before it starts.
func (c *Cache[K, A, V]) Miss() { c.stats.Misses++ }

// AddAlias makes a resolve to the entry under k. It does nothing when k is
// absent or a already resolves to an entry. Past the alias bound the
// entry's oldest alias is dropped and its charge refunded. Adding an alias
// evicts nothing; its charge counts against the bound at the next Put.
func (c *Cache[K, A, V]) AddAlias(k K, a A) {
	el, ok := c.entries[k]
	if !ok {
		return
	}
	if _, dup := c.aliases[a]; dup {
		return
	}
	e := el.Value.(*entry[K, A, V])
	if c.maxAliases > 0 && len(e.aliases) == c.maxAliases {
		old := e.aliases[0]
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
		delete(c.aliases, old)
		c.charge(e, -c.aliasSize(old))
	}
	e.aliases = append(e.aliases, a)
	c.aliases[a] = el
	c.charge(e, c.aliasSize(a))
}

func (c *Cache[K, A, V]) aliasSize(a A) int64 {
	if c.aliasBytes == nil {
		return 0
	}
	return c.aliasBytes(a)
}

func (c *Cache[K, A, V]) charge(e *entry[K, A, V], n int64) {
	e.size += n
	c.bytes += n
}

// Put stores v under k at a cost of size bytes and returns the resident
// value: v, or the value already under k, which is kept and marked most
// recently used. A new entry evicts least recently used entries, their
// aliases with them, until the bound holds or it is the only entry, so a
// single entry larger than the bound is still kept.
func (c *Cache[K, A, V]) Put(k K, v V, size int64) V {
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, A, V]).val
	}
	c.entries[k] = c.order.PushFront(&entry[K, A, V]{key: k, val: v, size: size})
	c.bytes += size
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		back := c.order.Back()
		e := back.Value.(*entry[K, A, V])
		c.order.Remove(back)
		delete(c.entries, e.key)
		for _, a := range e.aliases {
			delete(c.aliases, a)
		}
		c.bytes -= e.size
		c.stats.Evictions++
	}
	return v
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, A, V]) Stats() Stats {
	s := c.stats
	s.Entries = c.order.Len()
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	return s
}
